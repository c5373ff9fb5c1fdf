"""docs/OBSERVABILITY.md must document exactly the catalog -- both
directions -- and instrumented runs must stay inside it."""

from repro.core import MopEyeService
from repro.obs import CATALOG, SPANS, Observability
from repro.phone import App

from tests.conftest import World
from tests.test_docs import first_column


def _documented_names():
    return set(first_column("OBSERVABILITY.md",
                            r"[a-z_]+(?:\.[a-z_]+)+"))


class TestDocCoverage:
    def test_every_catalog_name_is_documented(self):
        documented = _documented_names()
        missing = (set(CATALOG) | set(SPANS)) - documented
        assert not missing, \
            "undocumented metrics/spans: %s" % sorted(missing)

    def test_every_documented_name_exists(self):
        documented = _documented_names()
        stale = documented - (set(CATALOG) | set(SPANS))
        assert not stale, \
            "documented but gone from the catalog: %s" % sorted(stale)

    def test_catalog_and_spans_do_not_collide(self):
        assert not set(CATALOG) & set(SPANS)


class TestEmittedNames:
    def test_instrumented_run_emits_only_catalog_names(self):
        """A full relay run can only touch catalogued instruments (the
        registry enforces it; this is the end-to-end check)."""
        world = World()
        world.add_server("93.184.216.34", name="example",
                         domains=["www.example.com"])
        obs = Observability(sim=world.sim, trace=True)
        mopeye = MopEyeService(world.device, obs=obs)
        mopeye.start()
        app = App(world.device, "com.example.app")
        world.run_process(app.resolve_and_request(
            "www.example.com", 443, b"GET / HTTP/1.1\r\n\r\n"))
        touched = set(obs.registry.names())
        assert touched  # the pipeline reported something
        assert touched <= set(CATALOG)
        assert {span.name for span in obs.tracer.spans} <= set(SPANS)
