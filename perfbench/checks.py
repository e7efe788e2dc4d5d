"""Output checks: every study and re-run is checked and counted.

An operation fails when it raises, when its signal disagrees with the
ground truth at the workload's target, or when it is not bit-identical
to the first operation on the same inputs in the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.result import FeasibilitySignal

#: Failure reasons kept in the result file; the count itself is exact.
MAX_REASONS = 20


def fingerprint(report) -> tuple:
    """What must repeat bit for bit across studies on the same inputs."""
    return (
        report.signal,
        report.best_transform,
        report.ber_estimate,
        tuple((r.transform_name, r.samples_used) for r in report.per_transform),
    )


def truth_signal(true_ber: float, target_accuracy: float) -> FeasibilitySignal:
    if true_ber <= 1.0 - target_accuracy:
        return FeasibilitySignal.REALISTIC
    return FeasibilitySignal.UNREALISTIC


@dataclass
class OutcomeLog:
    """Attempted and failed operations of one run, plus estimate errors."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    ber_errors: list[float] = field(default_factory=list)
    #: Re-runs whose lower-bound estimate said REALISTIC while the
    #: noise-adjusted truth was above the target error (not failures).
    optimistic: int = 0
    _reference: dict = field(default_factory=dict)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def _same_as_first(self, key, value) -> bool:
        return self._reference.setdefault(key, value) == value

    def raised(self, what: str, error: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{what} raised {type(error).__name__}: {error}")

    def study(self, key, report, true_ber: float, target: float) -> bool:
        """Check one study; returns whether it passed."""
        self.attempted += 1
        self.ber_errors.append(abs(report.ber_estimate - true_ber))
        expected = truth_signal(true_ber, target)
        if report.signal is not expected:
            self._fail(
                f"study {key}: signal {report.signal.name}, truth {expected.name} "
                f"(estimate {report.ber_estimate:.4f}, true BER {true_ber:.4f})"
            )
            return False
        if not self._same_as_first(("study", key), fingerprint(report)):
            self._fail(f"study {key}: report differs from the first on the same inputs")
            return False
        return True

    def rerun(
        self,
        key,
        best: str,
        estimate: float,
        signal: FeasibilitySignal,
        true_ber: float,
        target: float,
        two_sided: bool,
        expected: tuple | None = None,
    ) -> bool:
        """Check one incremental re-run; returns whether it passed.

        ``two_sided`` re-runs must match the truth exactly.  Otherwise
        only an UNREALISTIC answer under a REALISTIC truth fails: the
        estimate is a Cover-Hart lower bound, so an optimistic answer
        is counted in :attr:`optimistic` instead.  ``expected`` is a
        ``(estimate, signal)`` the re-run must reproduce exactly.
        """
        self.attempted += 1
        self.ber_errors.append(abs(estimate - true_ber))
        truth = truth_signal(true_ber, target)
        if signal is not truth:
            if two_sided or truth is FeasibilitySignal.REALISTIC:
                self._fail(
                    f"re-run {key}: signal {signal.name}, truth {truth.name} "
                    f"(estimate {estimate:.4f}, true BER {true_ber:.4f})"
                )
                return False
            self.optimistic += 1
        if expected is not None and (estimate, signal) != expected:
            self._fail(
                f"re-run {key}: ({estimate!r}, {signal.name}) differs from the "
                f"study's ({expected[0]!r}, {expected[1].name})"
            )
            return False
        if not self._same_as_first(("rerun", key), (best, estimate, signal)):
            self._fail(f"re-run {key}: differs from the first on the same labels")
            return False
        return True

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ber_abs_err(self) -> float:
        return sum(self.ber_errors) / len(self.ber_errors) if self.ber_errors else 0.0
