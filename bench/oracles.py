"""Output oracles, run outside the timed region.

Each oracle takes an op spec and the op's output and returns None when
the output is right, or a one-line reason when it is not.  They use the
standard library and `algebra` only: membership is brute force,
primality is trial division, witnesses are recomposed from their text,
and brackets and reductions are recomputed with a second polynomial
implementation.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import algebra
from workloads import EXAMPLE_FILES, NAMES

TAME, NOT_TAME, UNKNOWN = "Tame", "NotTame", "Unknown"
KNOWN_INSTANCES = {(10, 23, 25), (22, 47, 55)}
# Witnesses recomposed per run; the rest are checked by their claims only.
WITNESS_SAMPLE = 10


class Failure:
    """An op that raised; compares unequal to every output."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def is_member(l: int, a: int, b: int) -> bool:
    return any((l - s * a) % b == 0 for s in range(l // a + 1))


def decision_error(triple, verdict, reason, representation, has_witness) -> str | None:
    """Check the claims a verdict's reason tag makes about the triple."""
    d1, d2, d3 = triple
    member = is_member(d3, d1, d2)
    theorem3 = is_prime(d2) and d1 != 2 * math.gcd(d1, d3)
    theorem4 = is_prime(d3) and math.gcd(d1, d2) == 1
    late = d1 >= 3 and not member
    checks = {
        "TrivialSmallDegree": verdict == TAME and d1 < 3 and has_witness == (d1 == 1),
        "SemigroupMember": verdict == TAME and d1 >= 3 and has_witness and representation is not None
        and min(representation) >= 0 and representation[0] * d1 + representation[1] * d2 == d3,
        "EqualFirstPair": verdict == TAME and late and d1 == d2 and has_witness,
        "KnownInstance": verdict == TAME and late and d1 != d2 and tuple(triple) in KNOWN_INSTANCES,
        "Theorem3Exclusion": verdict == NOT_TAME and late and d1 != d2 and theorem3,
        "Theorem4Exclusion": verdict == NOT_TAME and late and d1 != d2 and theorem4,
        "HypothesesFail": verdict == UNKNOWN and late and d1 != d2
        and tuple(triple) not in KNOWN_INSTANCES and not theorem3 and not theorem4,
    }
    if reason not in checks:
        return f"{tuple(triple)}: unknown reason {reason!r}"
    if not checks[reason]:
        return f"{tuple(triple)}: {verdict}/{reason} does not hold"
    return None


def witness_error(triple, components) -> str | None:
    got = tuple(algebra.degree(c) for c in components)
    return None if got == tuple(triple) else f"{tuple(triple)}: witness composes to mdeg {got}"


def steps_to_text(steps) -> str:
    """A word file for library step objects, read through their public fields."""
    lines = ["vars: " + ", ".join(NAMES)]
    for step in steps:
        if hasattr(step, "images"):
            lines.append("perm " + " ".join(str(i + 1) for i in step.images))
        else:
            lines.append(f"elem {step.index + 1} {step.scalar} "
                         f"{algebra.format_poly(step.shift.terms(), NAMES)}")
    return "\n".join(lines) + "\n"


def _cli_payload(output):
    if isinstance(output, Failure):
        return None, output.text
    code, text = output
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, f"output is not JSON: {text[:60]!r}"


class Oracle:
    """Checks the outputs of one pass; the seeded `rng` picks the witnesses
    to recompose and the points to evaluate at."""

    def __init__(self, inputs, seed: int):
        self.inputs = inputs
        self.rng = random.Random(seed)

    def check_all(self, outputs: list) -> list:
        """A reason or None for each op of the pass, in order."""
        return [self.check(spec, out) for spec, out in zip(self.inputs.ops, outputs)]

    def sample(self, indices: list[int]) -> set[int]:
        return set(self.rng.sample(indices, min(WITNESS_SAMPLE, len(indices))))


class ScanOracle(Oracle):
    def check_all(self, outputs):
        errors = [self.check(spec, out) for spec, out in zip(self.inputs.ops, outputs)]
        witnessed = [i for i, out in enumerate(outputs)
                     if errors[i] is None and out.witness is not None]
        for i in sorted(self.sample(witnessed)):
            comps = algebra.compose_word_text(steps_to_text(outputs[i].witness))
            errors[i] = witness_error(self.inputs.ops[i], comps)
        return errors

    def check(self, spec, out):
        if isinstance(out, Failure):
            return out.text
        if list(out.triple) != spec:
            return f"{spec}: decision is for {out.triple}"
        return decision_error(spec, out.verdict, out.reason, out.representation,
                              out.witness is not None)


class DeepOracle(Oracle):
    def check_all(self, outputs):
        errors = [self.check(spec, out) for spec, out in zip(self.inputs.ops, outputs)]
        witnessed = [i for i, out in enumerate(outputs)
                     if errors[i] is None and _cli_payload(out)[0].get("witness")]
        for i in sorted(self.sample(witnessed)):
            payload = _cli_payload(outputs[i])[0]
            comps = algebra.compose_word_text(payload["witness"])
            errors[i] = witness_error(payload["triple"], comps)
        return errors

    def check(self, spec, out):
        payload, error = _cli_payload(out)
        if error:
            return error
        triple = sorted(int(v) for v in spec[1:4])
        if payload["triple"] != triple:
            return f"{triple}: output is for {payload['triple']}"
        witness = payload.get("witness")
        if witness is not None:
            steps = sum(1 for line in witness.splitlines() if line.startswith(("elem", "perm")))
            if steps != payload["witness_len"]:
                return f"{triple}: witness_len {payload['witness_len']} but {steps} steps"
        return decision_error(triple, payload["verdict"], payload["reason"],
                              payload["representation"], witness is not None)


# The paper's coefficients of [f1, f3], as displayed in its example.
PAPER_BRACKET_F1_F3 = {
    "[x,y]": "-30*x^2*y^4 - 54*x^3*y^2 - 18*x^4 - 6*y^3*z - 12*x*y*z + 1",
    "[x,z]": "-6*y^4 - 12*x*y^2 - 6*x^2",
    "[y,z]": "-10*y^5 - 18*x*y^3 - 6*x^2*y + 2*z",
}
VERIFY_CHECKS = 12


class ExampleOracle(Oracle):
    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self.components = dict(zip(EXAMPLE_FILES, inputs.context["components"]))
        self.points = [[Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 5)) for _ in NAMES]
                       for _ in range(2)]

    def check(self, spec, out):
        payload, error = _cli_payload(out)
        if error:
            return error
        if spec[0] == "verify-example":
            checks = payload.get("checks", [])
            passed = sum(1 for c in checks if c["passed"])
            if not payload.get("passed") or passed != VERIFY_CHECKS or len(checks) != VERIFY_CHECKS:
                return f"verify-example: {passed} of {len(checks)} checks passed"
            return None
        if spec[0] == "mdeg":
            expected = [algebra.degree(c) for c in self.components.values()]
            return None if payload.get("mdeg") == expected else f"mdeg: {payload.get('mdeg')} != {expected}"
        f, g = self.components[spec[1]], self.components[spec[2]]
        coefficients = {key: algebra.parse(text, NAMES) for key, text in payload["coefficients"].items()}
        if (spec[1], spec[2]) == ("f1.txt", "f3.txt"):
            for key, text in PAPER_BRACKET_F1_F3.items():
                if coefficients.get(key) != algebra.parse(text, NAMES):
                    return f"bracket f1 f3: {key} differs from the paper"
        for i in range(3):
            for j in range(i + 1, 3):
                key = f"[{NAMES[i]},{NAMES[j]}]"
                got = coefficients.get(key, {})
                for point in self.points:
                    d = [algebra.evaluate(algebra.derivative(p, k), point) for p in (f, g) for k in (i, j)]
                    if algebra.evaluate(got, point) != d[0] * d[3] - d[1] * d[2]:
                        return f"bracket {spec[1]} {spec[2]}: {key} is wrong at {point}"
        # A bracket's degree counts [x_i, x_j] as degree 2.
        degrees = [algebra.degree(c) + 2 for c in coefficients.values() if c]
        if payload["degree"] != (max(degrees) if degrees else None):
            return f"bracket {spec[1]} {spec[2]}: degree {payload['degree']} is wrong"
        return None


class ReduceOracle(Oracle):
    """A word map whose last step is a reduction must get one (any one);
    every map of the set does at the version this benchmark was written
    for, the one that exhausts SUBSET_BUDGET included.  A random map may
    get none."""

    def check(self, spec, out):
        payload, error = _cli_payload(out)
        if error:
            return error
        comps = self.inputs.context["maps"][spec[1]]
        if not payload["found"]:
            if spec[1] in self.inputs.context["reducible"]:
                return f"{spec[1]}: no reduction found, but the map's last step is one"
            nulls = all(payload[k] is None for k in ("target", "g", "residual", "residual_degree"))
            return None if nulls else f"{spec[1]}: found=false with a reduction attached"
        t = payload["target"] - 1
        j, k = (i for i in range(3) if i != t)
        g = algebra.parse(payload["g"], ("u", "v"))
        residual = algebra.parse(payload["residual"], NAMES)
        expected = algebra.sub(comps[t], algebra.compose(g, [comps[j], comps[k]], 3))
        if residual != expected:
            return f"{spec[1]}: residual != F_{t + 1} - g(F_{j + 1}, F_{k + 1})"
        degree = algebra.degree(residual)
        if degree != payload["residual_degree"] or not 1 <= degree < algebra.degree(comps[t]):
            return f"{spec[1]}: residual degree {degree} does not drop from {algebra.degree(comps[t])}"
        return None


ORACLES = {"scan": ScanOracle, "deep": DeepOracle, "example": ExampleOracle, "reduce": ReduceOracle}
