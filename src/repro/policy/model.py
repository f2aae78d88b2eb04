"""Declarative per-tenant resilience policy (policy-as-data).

Every resilience knob the fleet used to hard-code — degradation mode,
retry budget, rate quota, instance-respawn budget, circuit-breaker
threshold/cooldown, and the graduated response ladder — lives in a
JSON-serializable :class:`TenantPolicy`, resolved per tenant against
fleet-level defaults by a :class:`PolicySet`.  Documents are validated
eagerly at load (a malformed policy never reaches a running fleet) and
are content-addressed: the digest of the canonical JSON names the exact
policy generation a batch ran under, the same way spec digests name
spec generations.

The graduated response ladder is keyed on a tenant's *consecutive*
infrastructure strikes (trace gaps, decode failures — never security
verdicts):

* ``throttle_after``   — strikes that open the circuit breaker (requests
  are shed until a half-open probe succeeds);
* ``restore_after``    — strikes that roll the instance back to its last
  healthy snapshot (0 disables);
* ``quarantine_after`` — strikes that fence the tenant off entirely
  (0 disables).  This rung is an **infrastructure fence**, deliberately
  distinct from security quarantine: it never counts against the
  no-collateral invariant I2.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional

from repro.checker.degrade import DegradationPolicy
from repro.errors import PolicyError

#: Envelope format for persisted policy-set artifacts.
POLICY_FORMAT = 1

_DEGRADATIONS = tuple(p.value for p in DegradationPolicy)


def canonical_json(obj) -> str:
    """Canonical encoding shared by digests and round-trip tests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def policy_digest(obj) -> str:
    """Content address of a policy document (canonical-JSON sha256)."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's resilience contract.  All fields JSON-scalar."""

    policy_id: str = "default"
    #: what an enforcement-machinery failure means for the affected round
    degradation: str = "fail-closed"
    max_retries: int = 2
    #: max ops served per dispatched batch; overflow is shed (0 = no cap)
    rate_quota: int = 0
    #: device-fault respawns before the tenant is fenced
    respawn_budget: int = 1
    #: ladder rung 1: consecutive infra strikes that open the circuit
    #: (0 disables the breaker entirely)
    throttle_after: int = 3
    #: ops shed while open before a half-open probe is let through
    circuit_cooldown: int = 4
    #: ladder rung 2: strikes that restore the last healthy snapshot
    restore_after: int = 0
    #: ladder rung 3: strikes that fence the tenant (infra, not security)
    quarantine_after: int = 0

    def __post_init__(self):
        if not self.policy_id or not isinstance(self.policy_id, str):
            raise PolicyError("policy_id must be a non-empty string")
        if self.degradation not in _DEGRADATIONS:
            raise PolicyError(
                f"unknown degradation {self.degradation!r}; "
                f"choose from {_DEGRADATIONS}")
        for name in ("max_retries", "rate_quota", "respawn_budget",
                     "throttle_after", "restore_after",
                     "quarantine_after"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise PolicyError(f"{name} must be a non-negative int, "
                                  f"got {value!r}")
        if not isinstance(self.circuit_cooldown, int) \
                or isinstance(self.circuit_cooldown, bool) \
                or self.circuit_cooldown < 1:
            raise PolicyError("circuit_cooldown must be an int >= 1")
        if self.restore_after and self.throttle_after \
                and self.restore_after < self.throttle_after:
            raise PolicyError(
                "ladder out of order: restore_after "
                f"({self.restore_after}) fires before throttle_after "
                f"({self.throttle_after})")
        if self.quarantine_after and self.quarantine_after < max(
                self.throttle_after, self.restore_after, 1):
            raise PolicyError(
                "ladder out of order: quarantine_after "
                f"({self.quarantine_after}) fires before an earlier rung")

    @property
    def attempts(self) -> int:
        """Checks a round gets before it degrades: 1, or 1 +
        ``max_retries`` under ``retry``."""
        if self.degradation == DegradationPolicy.RETRY.value:
            return 1 + self.max_retries
        return 1

    def to_obj(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj) -> "TenantPolicy":
        if not isinstance(obj, dict):
            raise PolicyError(
                f"policy document must be an object, got {type(obj).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise PolicyError(f"unknown policy key(s): {', '.join(unknown)}")
        return cls(**obj)


#: The fleet's historical hard-coded behavior, now spelled as data.
DEFAULT_POLICY = TenantPolicy()


@dataclass(frozen=True)
class PolicySet:
    """Fleet-level defaults plus per-tenant overrides."""

    default: TenantPolicy = field(default_factory=TenantPolicy)
    tenants: Dict[str, TenantPolicy] = field(default_factory=dict)

    def __post_init__(self):
        for tenant, policy in self.tenants.items():
            if not isinstance(tenant, str) or not tenant:
                raise PolicyError("tenant keys must be non-empty strings")
            if not isinstance(policy, TenantPolicy):
                raise PolicyError(
                    f"override for {tenant!r} is not a TenantPolicy")

    def resolve(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default)

    def with_override(self, tenant: str,
                      policy: TenantPolicy) -> "PolicySet":
        tenants = dict(self.tenants)
        tenants[tenant] = policy
        return replace(self, tenants=tenants)

    def to_obj(self) -> Dict[str, object]:
        return {
            "format": POLICY_FORMAT,
            "default": self.default.to_obj(),
            "tenants": {t: p.to_obj()
                        for t, p in sorted(self.tenants.items())},
        }

    @property
    def digest(self) -> str:
        return policy_digest(self.to_obj())

    @classmethod
    def from_obj(cls, obj) -> "PolicySet":
        if not isinstance(obj, dict):
            raise PolicyError(
                f"policy set must be an object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - {"format", "default", "tenants"})
        if unknown:
            raise PolicyError(
                f"unknown policy-set key(s): {', '.join(unknown)}")
        if obj.get("format", POLICY_FORMAT) != POLICY_FORMAT:
            raise PolicyError(
                f"unsupported policy format {obj.get('format')!r}")
        default = TenantPolicy.from_obj(obj.get("default", {}))
        tenants_obj = obj.get("tenants", {})
        if not isinstance(tenants_obj, dict):
            raise PolicyError("tenants must be an object")
        tenants = {t: TenantPolicy.from_obj(p)
                   for t, p in tenants_obj.items()}
        return cls(default=default, tenants=tenants)


def load_policy_file(path: str) -> PolicySet:
    """Parse + validate a policy document; raises :class:`PolicyError`
    (never partially applies) on malformed input."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise PolicyError(f"cannot read policy file {path}: {exc}")
    except ValueError as exc:
        raise PolicyError(f"policy file {path} is not valid JSON: {exc}")
    return PolicySet.from_obj(obj)


class PolicyStore:
    """Content-addressed policy-set storage, mirroring the spec
    registry: memory-first, with a digest-verified disk artifact when a
    ``cache_dir`` is set so pool worker processes resolve the digest a
    batch was stamped with."""

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self._memory: Dict[str, PolicySet] = {}

    def path(self, digest: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir,
                            f"policy-{digest[:16]}.policy.json")

    def put(self, policies: PolicySet) -> str:
        obj = policies.to_obj()
        digest = policy_digest(obj)
        self._memory[digest] = policies
        path = self.path(digest)
        if path is not None:
            from repro.fleet.registry import _atomic_write_json
            _atomic_write_json(path, {"format": POLICY_FORMAT,
                                      "policy_sha256": digest,
                                      "policy": obj})
        return digest

    def get(self, digest: str) -> PolicySet:
        policies = self._memory.get(digest)
        if policies is not None:
            return policies
        path = self.path(digest)
        if path is None or not os.path.exists(path):
            raise PolicyError(
                f"no stored policy set for digest {digest[:16]}")
        try:
            with open(path) as handle:
                envelope = json.load(handle)
            obj = envelope["policy"]
        except (OSError, ValueError, KeyError, TypeError):
            raise PolicyError(
                f"policy artifact for {digest[:16]} is unreadable")
        if (not isinstance(envelope, dict)
                or envelope.get("format") != POLICY_FORMAT
                or envelope.get("policy_sha256") != digest
                or policy_digest(obj) != digest):
            raise PolicyError(
                f"policy artifact for {digest[:16]} fails its "
                f"content-digest check")
        policies = PolicySet.from_obj(obj)
        self._memory[digest] = policies
        return policies
