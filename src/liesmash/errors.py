"""Shared exception types, mapped to CLI exit codes 1, 2 and 3, and the one
record every check reports (CheckResult, built by sweep)."""


class InputError(ValueError):
    """Malformed input data (files, descriptors, element strings)."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation is violated."""


class VerificationError(RuntimeError):
    """An internal exact verification failed."""


SKIP = object()     # a case a check cannot decide, e.g. outside a domain


class CheckResult:
    def __init__(self, name: str, passed: bool, checked: int,
                 witness: str | None = None, skipped: int = 0):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.witness = witness
        self.skipped = skipped

    @property
    def reason(self) -> str:
        """The witness of a failure, "" on a pass."""
        return self.witness or ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"{self.name}: {status} ({self.checked} cases)"
        if self.witness:
            msg += f" witness: {self.witness}"
        return msg


def sweep(name: str, cases) -> CheckResult:
    """Run one check: cases yields None for a case that holds, SKIP for one
    it cannot decide, and a witness string, naming the failure and the
    case, for one that fails.  Cases are counted up to and including the
    first failure, where the sweep stops, so a passing check reports every
    case it covered; skipped cases are counted apart."""
    checked = skipped = 0
    for witness in cases:
        if witness is None:
            checked += 1
        elif witness is SKIP:
            skipped += 1
        else:
            return CheckResult(name, False, checked + 1, witness, skipped)
    return CheckResult(name, True, checked, skipped=skipped)
