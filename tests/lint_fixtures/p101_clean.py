"""P101 near-miss negatives: coherent protocols and unregistered halves."""


def register_environment(name):
    def wrap(cls):
        return cls

    return wrap


def register_probe(name):
    def wrap(cls):
        return cls

    return wrap


@register_environment("full-checkpoint")
class FullCheckpointEnvironment:
    """Both halves of the checkpoint protocol: round-trips cleanly."""

    def advance(self, round_index):
        return None

    def state_dict(self):
        return {"round": 0}

    def load_state(self, state):
        return None


@register_environment("pure-function")
class PureFunctionEnvironment:
    """No overrides at all: the base defaults are coherent."""

    def advance(self, round_index):
        return None


@register_probe("full-probe")
class FullProbe:
    """Capture plus restore path."""

    def on_round(self, context):
        return None

    def state_dict(self):
        return {"seen": 0}

    def load_state(self, state):
        return None


class UnregisteredHalf:
    """state_dict without load_state — but never registered, so exempt."""

    def state_dict(self):
        return {}
