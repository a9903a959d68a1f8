"""Planted P101 positives: half-implemented durable-run protocols."""


def register_environment(name):
    def wrap(cls):
        return cls

    return wrap


def register_probe(name):
    def wrap(cls):
        return cls

    return wrap


@register_environment("half-checkpoint")
class HalfCheckpointEnvironment:
    """P101: state_dict without load_state."""

    def advance(self, round_index):
        return None

    def state_dict(self):
        return {"round": 0}


@register_probe("capture-only")
class CaptureOnlyProbe:
    """P101: state_dict without a restore path."""

    def on_round(self, context):
        return None

    def state_dict(self):
        return {"seen": 0}


class RestoreOnlyProbe:
    """P101: restore path without state_dict (call-form registration)."""

    def on_round(self, context):
        return None

    def load_state(self, state):
        return None


register_probe("restore-only")(RestoreOnlyProbe)
