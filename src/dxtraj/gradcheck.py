"""Full-network gradient verification against central finite differences."""

from __future__ import annotations

import numpy as np

from . import network
from .ehr_data import BatchTensor, ExtraFeatures
from .numerics import SeededRng, finite_diff_grad, max_relative_error
from .training import cross_entropy_loss


def random_batch(n_codes, n_patients, n_steps, rng: SeededRng,
                 extras: ExtraFeatures | None = None,
                 ragged: bool = True, lengths=None) -> BatchTensor:
    """Random multi-hot batch; with ragged=True the last patient has one step
    fewer, exercising the mask path. lengths, when given, holds the number of
    steps of each patient instead (0 makes an all-padding patient)."""
    extras = extras or ExtraFeatures()
    x = (rng.uniform((n_steps, n_patients, n_codes + extras.width)) < 0.4) * 1.0
    targets = (rng.uniform((n_steps, n_patients, n_codes)) < 0.4) * 1.0
    mask = np.ones((n_steps, n_patients))
    if lengths is not None:
        if len(lengths) != n_patients or max(lengths) > n_steps:
            raise ValueError(f"lengths {list(lengths)} do not fit "
                             f"{n_steps} steps x {n_patients} patients")
        mask = (np.arange(n_steps)[:, None] < np.asarray(lengths)) * 1.0
    elif ragged and n_steps > 1 and n_patients > 1:
        mask[-1, -1] = 0.0
    return BatchTensor.from_padded(
        x, mask, targets, patient_ids=[f"p{i}" for i in range(n_patients)])


def full_network_gradcheck(cell_kind: str, n_codes: int = 5, hidden: int = 4,
                           n_patients: int = 2, n_steps: int = 3,
                           layers: int = 1, embed_dim: int | None = None,
                           seed: int = 0, eps: float = 1e-5,
                           corrupt: str | None = None,
                           lengths=None, extras: ExtraFeatures | None = None,
                           dropout_rate: float = 0.0) -> dict:
    """Max relative error between analytic and finite-difference gradients
    over the coordinates of each parameter, by parameter name (in
    ModelParams.flat() order).

    corrupt names a parameter whose analytic gradient gets perturbed before
    comparison (negative-control test hook). lengths, when given, sets the
    number of steps of each patient (see random_batch). extras adds the
    extra input slices to the model and the batch. With dropout_rate > 0,
    one inverted-dropout mask of the joint layer is drawn and every forward
    pass of the check uses it, so the loss stays a function of the weights.
    """
    rng = SeededRng(seed)
    model = network.init_model(cell_kind, n_codes, hidden, layers=layers,
                               extras=extras, embed_dim=embed_dim, rng=rng)
    # move off the identity/zero init so no LReLU pre-activation sits at 0
    for k, v in model.flat().items():
        v[...] = v + rng.normal(0.3, v.shape)
    batch = random_batch(n_codes, n_patients, n_steps, rng, extras=extras,
                         lengths=lengths)
    dropout = None
    if dropout_rate > 0:
        keep = 1.0 - dropout_rate
        dropout = (rng.uniform(batch.mask.shape + (hidden,)) < keep) / keep

    trace = network.forward(batch, model, dropout_mask=dropout)
    grads = network.backward(trace, batch, model)
    if corrupt is not None:
        grads[corrupt] += 0.5

    theta0 = model.theta.copy()

    def objective(theta):
        model.theta[...] = theta
        tr = network.forward(batch, model, dropout_mask=dropout)
        return cross_entropy_loss(batch.target_rows, tr["yhat_rows"])

    numeric = model.views(finite_diff_grad(objective, theta0, eps=eps))
    model.theta[...] = theta0
    return {name: max_relative_error(g, numeric[name])
            for name, g in grads.items()}
