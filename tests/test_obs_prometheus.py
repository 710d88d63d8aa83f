"""Prometheus exposition: rendering, escaping, and the validator."""

from repro.emulator import APPLE_M1
from repro.obs import (
    MetricsHub,
    Tracer,
    prometheus_exposition,
    validate_exposition,
)
from repro.runtime import ResourceQuota, Runtime
from repro.serve import Gateway, TenantLoad, TenantPolicy, run_loadgen
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit


EXIT0 = prologue() + "    mov x0, #0\n" + rt_exit()


# -- rendering ---------------------------------------------------------------


class TestExposition:
    def test_bracket_labels_become_real_labels(self):
        hub = MetricsHub()
        hub.host_counter("serve.rejected[tenant=acme,reason=queue-full]") \
            .inc(3)
        text = prometheus_exposition(hub)
        assert "# TYPE repro_serve_rejected_total counter" in text
        assert ('repro_serve_rejected_total'
                '{reason="queue-full",tenant="acme"} 3') in text

    def test_counter_gets_total_suffix_once(self):
        hub = MetricsHub()
        hub.host_counter("a.plain").inc()
        hub.host_counter("b.already_total").inc()
        text = prometheus_exposition(hub)
        assert "repro_a_plain_total 1" in text
        assert "repro_b_already_total 1" in text
        assert "total_total" not in text

    def test_gauge_rendering(self):
        hub = MetricsHub()
        hub.host_gauge("serve.lanes").set(4)
        hub.host_gauge("load.avg").set(0.375)
        text = prometheus_exposition(hub)
        assert "# TYPE repro_serve_lanes gauge" in text
        assert "repro_serve_lanes 4" in text       # integral float -> int
        assert "repro_load_avg 0.375" in text

    def test_label_value_escaping_roundtrips(self):
        hub = MetricsHub()
        hub.host_counter('odd[name=a\\b"c\nd]').inc()
        text = prometheus_exposition(hub)
        assert '{name="a\\\\b\\"c\\nd"}' in text
        assert validate_exposition(text) == []

    def test_histogram_shape(self):
        hub = MetricsHub()
        histogram = hub.host_histogram("lat", bounds=(0.01, 0.1))
        for value in (0.005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        text = prometheus_exposition(hub)
        assert '# TYPE repro_lat histogram' in text
        assert 'repro_lat_bucket{le="0.01"} 2' in text
        assert 'repro_lat_bucket{le="0.1"} 3' in text     # cumulative
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert 'repro_lat_count 4' in text
        assert validate_exposition(text) == []

    def test_sandbox_families(self):
        runtime = Runtime(model=APPLE_M1)
        tracer = Tracer().attach(runtime)
        hub = MetricsHub().attach(tracer, runtime)
        proc = runtime.spawn(compile_lfi(EXIT0).elf, verify=True)
        runtime.set_quota(proc, ResourceQuota(max_instructions=100_000))
        runtime.run_until_exit(proc)
        hub.collect(runtime)
        text = prometheus_exposition(hub)
        pid = f'pid="{proc.pid}"'
        assert f'repro_sandbox_instructions_total{{{pid}}}' in text
        assert f'repro_sandbox_calls_total{{call="exit",{pid}}} 1' in text
        assert 'repro_sandbox_quota_headroom' in text
        assert validate_exposition(text) == []

    def test_empty_hub_renders_empty(self):
        assert prometheus_exposition(MetricsHub()) == ""
        assert validate_exposition("") == []

    def test_deterministic_ordering(self):
        def build():
            hub = MetricsHub()
            for tenant in ("b", "a", "c"):
                hub.host_counter(f"serve.offered[tenant={tenant}]").inc()
            hub.host_gauge("z.last").set(1)
            hub.host_gauge("a.first").set(2)
            return prometheus_exposition(hub)
        text = build()
        assert text == build()
        lines = text.splitlines()
        families = [ln.split()[2] for ln in lines if ln.startswith("#")]
        assert families == sorted(families)
        offered = [ln for ln in lines if "offered" in ln
                   and not ln.startswith("#")]
        assert offered == sorted(offered)


# -- validator ---------------------------------------------------------------


VALID = """\
# TYPE repro_jobs_total counter
repro_jobs_total{tenant="a"} 5
repro_jobs_total{tenant="b"} 0
# TYPE repro_lat histogram
repro_lat_bucket{le="0.1"} 1
repro_lat_bucket{le="+Inf"} 2
repro_lat_sum 1.5
repro_lat_count 2
# TYPE repro_lanes gauge
repro_lanes 4
"""


class TestValidator:
    def test_valid_text_passes(self):
        assert validate_exposition(VALID) == []

    def test_sample_without_type(self):
        problems = validate_exposition("repro_x 1\n")
        assert any("no preceding TYPE" in p for p in problems)

    def test_duplicate_type_and_series(self):
        text = ("# TYPE repro_x gauge\nrepro_x 1\n"
                "# TYPE repro_x gauge\nrepro_x 2\n")
        problems = validate_exposition(text)
        assert any("duplicate TYPE" in p for p in problems)
        assert any("duplicate series" in p for p in problems)

    def test_counter_conventions(self):
        text = "# TYPE repro_bad counter\nrepro_bad 1\n"
        assert any("_total" in p for p in validate_exposition(text))
        text = "# TYPE repro_x_total counter\nrepro_x_total -1\n"
        assert any("negative" in p for p in validate_exposition(text))

    def test_grammar_errors(self):
        assert validate_exposition("# TYPE repro_x gauge\nrepro_x one\n")
        assert validate_exposition("9bad_name 1\n")
        assert validate_exposition(
            '# TYPE repro_x gauge\nrepro_x{l="a",l="b"} 1\n')  # dup label
        assert validate_exposition(
            '# TYPE repro_x gauge\nrepro_x{l="bad\\q"} 1\n')   # bad escape

    def test_histogram_invariants(self):
        missing_inf = ("# TYPE repro_h histogram\n"
                       'repro_h_bucket{le="1"} 1\n'
                       "repro_h_sum 1\nrepro_h_count 1\n")
        assert any("+Inf" in p for p in validate_exposition(missing_inf))
        disagree = ("# TYPE repro_h histogram\n"
                    'repro_h_bucket{le="1"} 1\n'
                    'repro_h_bucket{le="+Inf"} 1\n'
                    "repro_h_sum 1\nrepro_h_count 3\n")
        assert any("!= _count" in p for p in validate_exposition(disagree))
        shrinking = ("# TYPE repro_h histogram\n"
                     'repro_h_bucket{le="1"} 5\n'
                     'repro_h_bucket{le="2"} 3\n'
                     'repro_h_bucket{le="+Inf"} 5\n'
                     "repro_h_sum 1\nrepro_h_count 5\n")
        assert any("not cumulative" in p
                   for p in validate_exposition(shrinking))

    def test_histogram_per_labelset_subgroups(self):
        # Two tenants interleaved: each subgroup validated on its own.
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1",tenant="a"} 1\n'
                'repro_h_bucket{le="1",tenant="b"} 2\n'
                'repro_h_bucket{le="+Inf",tenant="a"} 1\n'
                'repro_h_bucket{le="+Inf",tenant="b"} 2\n'
                'repro_h_sum{tenant="a"} 0.5\n'
                'repro_h_sum{tenant="b"} 1.5\n'
                'repro_h_count{tenant="a"} 1\n'
                'repro_h_count{tenant="b"} 2\n')
        assert validate_exposition(text) == []


# -- end to end: a real serving run scrapes clean ----------------------------


def test_serving_run_exports_valid_exposition():
    policies = {
        "gold": TenantPolicy(priority=0, rate=60.0, burst=8.0,
                             sla_s=0.05),
        "bronze": TenantPolicy(priority=2, rate=10.0, burst=2.0,
                               queue_limit=4),
    }
    gateway = Gateway(policies, lanes=2, seed=4)
    loads = [TenantLoad("gold", rate=40.0, target_instructions=3000,
                        value=1),
             TenantLoad("bronze", rate=60.0, target_instructions=4000,
                        value=2)]
    run_loadgen(gateway, loads, 0.25, seed=4)
    gateway.report()
    text = prometheus_exposition(gateway.ops)
    assert validate_exposition(text) == []
    assert "repro_serve_completed_total" in text
    assert 'repro_serve_rejected_total{reason="throttled",tenant="bronze"}' \
        in text
    assert 'repro_serve_latency_s_bucket{le="+Inf",tenant="gold"}' in text
    assert text == prometheus_exposition(gateway.ops)  # stable render
