"""Submission validation: bad payloads fail fast with clear messages."""

import pytest

from repro.service import JobSpec, validate_spec


@pytest.fixture
def good_inject(sum_loop_src):
    def build():
        return {"kind": "inject", "program": sum_loop_src,
                "params": {"technique": "edgcf",
                           "faults": ["direction"],
                           "branch": "loop+12"}}
    return build


class TestValidateSpec:
    def test_good_inject_payload(self, good_inject):
        spec = validate_spec(good_inject())
        assert isinstance(spec, JobSpec)
        assert spec.kind == "inject"
        assert spec.tenant == "default"

    def test_non_object_payload(self, good_inject):
        with pytest.raises(ValueError, match="JSON object"):
            validate_spec(["inject"])

    def test_unknown_kind(self, good_inject):
        with pytest.raises(ValueError, match="kind must be one of"):
            validate_spec({"kind": "meditate"})

    def test_missing_program(self, good_inject):
        payload = good_inject()
        del payload["program"]
        with pytest.raises(ValueError, match="need 'program'"):
            validate_spec(payload)

    def test_unassemblable_program(self, good_inject, sum_loop_src):
        payload = good_inject()
        payload["program"] = "this is not assembly"
        with pytest.raises(ValueError, match="does not assemble"):
            validate_spec(payload)

    def test_fuzz_rejects_a_program(self, good_inject, sum_loop_src):
        with pytest.raises(ValueError, match="generate their own"):
            validate_spec({"kind": "fuzz", "program": sum_loop_src})

    def test_bad_fault_token(self, good_inject):
        payload = good_inject()
        payload["params"]["faults"] = ["teleport:3"]
        with pytest.raises(ValueError, match="bad fault token"):
            validate_spec(payload)

    def test_unknown_branch_symbol(self, good_inject):
        payload = good_inject()
        payload["params"]["branch"] = "nowhere"
        with pytest.raises(ValueError, match="bad fault token"):
            validate_spec(payload)

    def test_branch_fault_at_a_non_branch(self, good_inject):
        payload = good_inject()
        payload["params"]["branch"] = "loop"          # an add
        with pytest.raises(ValueError, match="no branch instruction"):
            validate_spec(payload)

    def test_program_without_code(self, good_inject):
        payload = good_inject()
        payload["program"] = ".entry main\nmain:\n"
        with pytest.raises(ValueError, match="has no code"):
            validate_spec(payload)

    def test_empty_fault_list(self, good_inject):
        payload = good_inject()
        payload["params"]["faults"] = []
        with pytest.raises(ValueError, match="non-empty list"):
            validate_spec(payload)

    def test_unknown_technique(self, good_inject):
        payload = good_inject()
        payload["params"]["technique"] = "prayer"
        with pytest.raises(ValueError, match="unknown technique"):
            validate_spec(payload)

    def test_unknown_policy(self, good_inject):
        payload = good_inject()
        payload["params"]["policy"] = "sometimes"
        with pytest.raises(ValueError):
            validate_spec(payload)

    def test_unknown_backend(self, good_inject):
        payload = good_inject()
        payload["params"]["backend"] = "gpu"
        with pytest.raises(ValueError, match="unknown backend"):
            validate_spec(payload)

    def test_bad_tenant(self, good_inject):
        payload = good_inject()
        payload["tenant"] = "../../etc"
        with pytest.raises(ValueError, match="tenant"):
            validate_spec(payload)

    def test_bad_priority(self, good_inject):
        payload = good_inject()
        payload["priority"] = 10_000
        with pytest.raises(ValueError, match="priority"):
            validate_spec(payload)

    def test_name_with_path_separator(self, good_inject):
        payload = good_inject()
        payload["name"] = "../escape.s"
        with pytest.raises(ValueError, match="name"):
            validate_spec(payload)

    def test_jobs_bound(self, good_inject):
        payload = good_inject()
        payload["params"]["jobs"] = 1000
        with pytest.raises(ValueError, match="params.jobs"):
            validate_spec(payload)

    def test_fuzz_policy_validation(self, good_inject, sum_loop_src):
        with pytest.raises(ValueError):
            validate_spec({"kind": "fuzz",
                           "params": {"policies": ["whenever"]}})

    def test_verify_technique_validation(self, good_inject, sum_loop_src):
        with pytest.raises(ValueError, match="techniques"):
            validate_spec({"kind": "verify", "program": sum_loop_src,
                           "params": {"techniques": ["edgcf-naive"]}})

    def test_spec_json_roundtrip(self, good_inject):
        spec = validate_spec(good_inject())
        assert JobSpec.from_json(spec.to_json()) == spec
