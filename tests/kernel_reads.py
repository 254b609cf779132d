"""The ``HyperParams`` fields each kernel reads, written out, for tests of
``kernels.normal_form`` and of the configs it holds in normal form."""

from dataclasses import fields

from hypothesis import strategies as st

from adaplus.kernels import HyperParams

HP_FIELDS = tuple(f.name for f in fields(HyperParams))

# adabelief reads weight_decay too where decoupled_decay is set
READS = {
    "adaplus": {"beta1", "beta2", "eps", "weight_decay", "use_nesterov", "use_belief"},
    "adamw": {"beta1", "beta2", "eps", "weight_decay"},
    "nadam": {"beta1", "beta2", "eps", "use_nesterov"},
    "adabelief": {"beta1", "beta2", "eps", "decoupled_decay"},
    "adam": {"beta1", "beta2", "eps"},
    "sgdm": {"beta1", "use_nesterov"},
}


def reads(kernel, hp):
    """The fields of ``hp`` that ``kernel`` reads."""
    return READS[kernel] | ({"weight_decay"} if kernel == "adabelief" and hp.decoupled_decay else set())


# HyperParams over its whole domain, bounds included
HYPER_PARAMS = st.builds(
    HyperParams,
    beta1=st.floats(0.0, 0.999),
    beta2=st.floats(0.0, 0.9999),
    eps=st.floats(0.0, 1.0),
    weight_decay=st.floats(0.0, 3.0),
    use_nesterov=st.booleans(),
    use_belief=st.booleans(),
    decoupled_decay=st.booleans(),
)
