"""Access control tests: authority signatures and policy enforcement."""

import pytest

from repro.exceptions import AccessDeniedError
from repro.sql.parser import parse
from repro.tds.access_control import (
    AccessPolicy,
    Authority,
    permissive_policy,
)


@pytest.fixture
def authority():
    return Authority(bytes(16))


class TestAuthority:
    def test_issue_and_verify(self, authority):
        credential = authority.issue("edf", ["energy-provider"])
        assert authority.verify(credential)

    def test_tampered_subject_rejected(self, authority):
        credential = authority.issue("edf", ["energy-provider"])
        from repro.core.messages import Credential

        forged = Credential("someone-else", credential.roles, credential.signature)
        assert not authority.verify(forged)

    def test_tampered_roles_rejected(self, authority):
        credential = authority.issue("edf", ["energy-provider"])
        from repro.core.messages import Credential

        forged = Credential(
            credential.subject, frozenset({"admin"}), credential.signature
        )
        assert not authority.verify(forged)

    def test_different_authority_rejected(self, authority):
        other = Authority(b"\x01" * 16)
        credential = other.issue("edf", ["energy-provider"])
        assert not authority.verify(credential)


class TestPolicy:
    @pytest.fixture
    def policy(self):
        return (
            AccessPolicy()
            .grant("energy-provider", "Power", aggregate_only=True)
            .grant("energy-provider", "Consumer",
                   columns=["cid", "district", "accomodation"], aggregate_only=True)
            .grant("doctor", "Health")
        )

    def _cred(self, authority, roles):
        return authority.issue("someone", roles)

    def test_aggregate_query_allowed(self, policy, authority):
        statement = parse(
            "SELECT C.district, AVG(P.cons) FROM Power P, Consumer C "
            "WHERE C.cid = P.cid GROUP BY C.district"
        )
        policy.authorize(self._cred(authority, ["energy-provider"]), statement)

    def test_raw_select_denied_for_aggregate_only(self, policy, authority):
        statement = parse("SELECT cons FROM Power")
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["energy-provider"]), statement)

    def test_select_star_denied_for_aggregate_only(self, policy, authority):
        statement = parse("SELECT * FROM Power")
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["energy-provider"]), statement)

    def test_unknown_role_denied(self, policy, authority):
        statement = parse("SELECT AVG(cons) FROM Power")
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["random-company"]), statement)

    def test_column_restriction_enforced(self, authority):
        policy = AccessPolicy().grant("stat", "Consumer", columns=["district"])
        ok = parse("SELECT district FROM Consumer")
        policy.authorize(self._cred(authority, ["stat"]), ok)
        bad = parse("SELECT district, accomodation FROM Consumer")
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["stat"]), bad)

    def test_where_columns_also_checked(self, authority):
        policy = AccessPolicy().grant("stat", "Consumer", columns=["district"])
        statement = parse("SELECT district FROM Consumer WHERE accomodation = 'flat'")
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["stat"]), statement)

    def test_full_access_table(self, policy, authority):
        statement = parse("SELECT * FROM Health")
        policy.authorize(self._cred(authority, ["doctor"]), statement)

    def test_multiple_roles_union(self, policy, authority):
        statement = parse("SELECT * FROM Health")
        credential = self._cred(authority, ["energy-provider", "doctor"])
        policy.authorize(credential, statement)

    def test_permissive_policy(self, authority):
        policy = permissive_policy(["A", "B"])
        statement = parse("SELECT * FROM A")
        policy.authorize(self._cred(authority, ["public"]), statement)
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["public"]), parse("SELECT * FROM C"))

    def test_qualified_columns_attributed_to_right_table(self, authority):
        # P.cons belongs to Power; the Consumer grant must not leak to it.
        policy = (
            AccessPolicy()
            .grant("x", "Power", columns=["cid"])
            .grant("x", "Consumer")
        )
        statement = parse(
            "SELECT P.cons FROM Power P, Consumer C WHERE C.cid = P.cid"
        )
        with pytest.raises(AccessDeniedError):
            policy.authorize(self._cred(authority, ["x"]), statement)

    def test_statement_walked_once_however_many_devices_authorize(
        self, policy, authority, monkeypatch
    ):
        # Every device of a fleet opens the same (parse-memoised) statement;
        # the referenced-column walk belongs to the statement's plan, not
        # to each authorize call.
        from repro.sql import executor

        walks = []
        real = executor.column_refs

        def counting(expression):
            walks.append(expression)
            return real(expression)

        monkeypatch.setattr(executor, "column_refs", counting)
        statement = parse(
            "SELECT C.district, MAX(P.cons) FROM Power P, Consumer C "
            "WHERE C.cid = P.cid AND P.cons > 17 GROUP BY C.district"
        )
        credential = self._cred(authority, ["energy-provider"])
        policy.authorize(credential, statement)
        after_first = len(walks)
        assert after_first > 0
        for __ in range(64):
            policy.authorize(credential, statement)
        assert len(walks) == after_first
