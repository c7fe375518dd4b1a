"""Access control: credentials, authorities and TDS-side policies.

§2.1: "each TDS is responsible for participating in a distributed query
protocol while enforcing the access control rules protecting the local
data it hosts"; the policy may come from the producer organism, the
legislator or a consumer association, installed at burn time or downloaded
(§3.1).

The trust chain is simulated faithfully:

* an :class:`Authority` signs querier credentials (HMAC under the
  authority key — the simulation stand-in for a PKI signature);
* every TDS knows the authority's verification material and the policy;
* the SSI can *read* credentials (they are cleartext) but cannot forge
  them.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.messages import Credential
from repro.exceptions import AccessDeniedError
from repro.sql.ast import SelectStatement
from repro.sql.executor import plan_of


class Authority:
    """Issues and verifies querier credentials."""

    def __init__(self, key: bytes, name: str = "authority") -> None:
        self._key = key
        self.name = name

    def issue(self, subject: str, roles: Iterable[str]) -> Credential:
        """Sign a credential binding *subject* to *roles*."""
        credential = Credential(subject, frozenset(roles), b"")
        signature = self._sign(credential.signing_payload())
        return Credential(subject, frozenset(roles), signature)

    def verify(self, credential: Credential) -> bool:
        """Constant-time signature check."""
        expected = self._sign(credential.signing_payload())
        return hmac.compare_digest(expected, credential.signature)

    def _sign(self, payload: bytes) -> bytes:
        return hmac.new(self._key, payload, hashlib.sha256).digest()


@dataclass(frozen=True)
class AccessRule:
    """Grants one role access to one table.

    * ``columns`` — ``None`` grants every column, otherwise the listed set;
    * ``aggregate_only`` — when True the role may only run aggregate
      queries over the table (the smart-metering situation: the energy
      provider may compute district averages but never see raw readings,
      §2.3 footnote 6).
    """

    role: str
    table: str
    columns: frozenset[str] | None = None
    aggregate_only: bool = False

    def covers_column(self, column: str) -> bool:
        return self.columns is None or column in self.columns


@dataclass
class AccessPolicy:
    """The rule set a TDS enforces before answering any query."""

    rules: list[AccessRule] = field(default_factory=list)

    def grant(
        self,
        role: str,
        table: str,
        columns: Iterable[str] | None = None,
        aggregate_only: bool = False,
    ) -> "AccessPolicy":
        """Add a rule (chainable)."""
        frozen = frozenset(columns) if columns is not None else None
        self.rules.append(AccessRule(role, table, frozen, aggregate_only))
        return self

    # ------------------------------------------------------------------ #
    # enforcement
    # ------------------------------------------------------------------ #
    def authorize(self, credential: Credential, statement: SelectStatement) -> None:
        """Raise :class:`AccessDeniedError` unless *credential* may run
        *statement*.  Checks, per referenced table (the statement's plan
        holds the per-table column sets, walked once per statement):

        1. some role of the querier has a rule for the table;
        2. every referenced column of that table is covered;
        3. ``aggregate_only`` rules reject non-aggregate queries.
        """
        referenced = plan_of(statement).referenced_columns
        for table_name, columns in referenced.items():
            applicable = [
                rule
                for rule in self.rules
                if rule.table == table_name and rule.role in credential.roles
            ]
            if not applicable:
                raise AccessDeniedError(
                    f"querier {credential.subject!r} has no grant on table "
                    f"{table_name!r}"
                )
            if all(rule.aggregate_only for rule in applicable):
                if not statement.is_aggregate_query():
                    raise AccessDeniedError(
                        f"table {table_name!r} is aggregate-only for querier "
                        f"{credential.subject!r}"
                    )
                if statement.select_star:
                    raise AccessDeniedError(
                        f"SELECT * not allowed on aggregate-only table {table_name!r}"
                    )
            for column in columns:
                if not any(rule.covers_column(column) for rule in applicable):
                    raise AccessDeniedError(
                        f"column {column!r} of table {table_name!r} not granted "
                        f"to querier {credential.subject!r}"
                    )


def permissive_policy(tables: Iterable[str], role: str = "public") -> AccessPolicy:
    """A policy granting *role* unrestricted access to *tables* (useful for
    tests and examples where access control is not the point)."""
    policy = AccessPolicy()
    for table in tables:
        policy.grant(role, table)
    return policy
