"""What generating the campaign costs, and that making it cheaper moved
no draw.

Three kinds of test, none reading a clock: datasets pinned by digest
(taken before the generator was made cheaper), rewritten draws run
against the bodies they replaced on twin generators seeded alike --
equal results *and* equal ``rng.getstate()`` -- and counts of the
set-up work one run does.
"""

import hashlib
import multiprocessing
import os
import random
import re
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.persist import encode_batch, record_to_line
from repro.crowd import (
    AppCatalog,
    AppProfile,
    Campaign,
    CampaignConfig,
    DomainProfile,
    Population,
    ShardedCampaign,
    build_catalog,
)
from repro.crowd import campaign as campaign_module
from repro.crowd import sharding
from repro.sim import LogNormal, distributions

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


class TestPinnedDatasets:
    """The dataset is the generator's regression test."""

    def test_in_process_campaign(self, tmp_path):
        # One value on every Python version and hash seed CI runs this
        # under: no shard byte depends on either, on the record's type
        # or on whether its line was formatted or dumped -- and a batch
        # is those lines.
        config = CampaignConfig(scale=0.01, seed=7)
        sha = hashlib.sha256()
        first = []
        for record in Campaign(config=config).iter_records():
            sha.update((record_to_line(record) + "\n").encode())
            if len(first) < 50:
                first.append(record)
        assert sha.hexdigest() == ("df731245e11559a7cf397bb21480d41c"
                                   "94b812b00132dd1f96852dbc9e92ccd4")
        assert hashlib.sha256(encode_batch(first)).hexdigest() == (
            "a7f93fc3055e1ffb54315949428bff0b"
            "2e364e36d92fd7dd0a1d7ce92a755e71")
        # The same campaign written by a two-worker pool, each worker
        # building its campaign once: the same bytes.
        assert ShardedCampaign(config, workers=2,
                               shard_dir=str(tmp_path)).run().digest() \
            == sha.hexdigest()

    @pytest.mark.parametrize("workers,n_shards",
                             [(1, 1), (2, 3), (3, 7)])
    def test_sharded_campaign(self, tmp_path, workers, n_shards):
        run = ShardedCampaign(CampaignConfig(scale=0.001, seed=11),
                              workers=workers, n_shards=n_shards,
                              shard_dir=str(tmp_path)).run()
        assert len(run.paths) == n_shards
        assert run.total_records == 7862
        assert run.digest() == ("1f9c17c3310a7226231f7749eb5f271b"
                                "b21319bb07e5d49ec6331d15ee90cedb")


# -- draw for draw ----------------------------------------------------
# The bodies the precomputed-cumulative-weights sampling replaced, kept
# as references.

def _choices_sample_app(catalog, rng):
    cum_weights, acc = [], 0.0
    for app in catalog.apps:
        acc += app.weight
        cum_weights.append(acc)
    return rng.choices(catalog.apps, cum_weights=cum_weights, k=1)[0]


def _choices_sample_domain(app, rng):
    return rng.choices(app.domains,
                       weights=[d.weight for d in app.domains], k=1)[0]


def _twins(seed):
    return random.Random(seed), random.Random(seed)


def _app(weights):
    return AppProfile("p", "n", "c", [
        DomainProfile("d%d.example" % i, 10.0, weight=weight)
        for i, weight in enumerate(weights)], weight=1.0)


_SEEDS = st.integers(min_value=0, max_value=2 ** 32)
_WEIGHTS = st.lists(st.floats(min_value=0.0, max_value=1e6),
                    min_size=1, max_size=40).filter(
                        lambda weights: sum(weights) > 0)

CATALOG = build_catalog(n_longtail=300, seed=5)
WHATSAPP = CATALOG.by_package("com.whatsapp")


class TestDrawForDraw:
    @given(_SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_sample_app(self, seed):
        ours, theirs = _twins(seed)
        for _ in range(20):
            assert CATALOG.sample_app(ours) \
                is _choices_sample_app(CATALOG, theirs)
        assert ours.getstate() == theirs.getstate()

    @given(_SEEDS, _WEIGHTS)
    @settings(max_examples=100, deadline=None)
    def test_sample_domain(self, seed, weights):
        self._same_domains(_app(weights), seed)

    @pytest.mark.parametrize("app", [
        _app([1.0]), _app([3.0, 1.0]), _app([2.0, 0.0, 1.0]),
        _app([0.0, 1.0]), _app([1.0, 0.0]), WHATSAPP],
        ids=["one", "two", "zero-inside", "zero-first", "zero-last",
             "whatsapp-334"])
    def test_sample_domain_named_cases(self, app):
        for seed in range(20):
            self._same_domains(app, seed)

    @staticmethod
    def _same_domains(app, seed):
        ours, theirs = _twins(seed)
        for _ in range(20):
            assert app.sample_domain(ours) \
                is _choices_sample_domain(app, theirs)
        # One random() a draw, a one-domain app included.
        assert ours.getstate() == theirs.getstate()

    def test_a_zero_weight_domain_is_never_drawn(self):
        app = _app([2.0, 0.0, 1.0])
        rng = random.Random(0)
        drawn = {app.sample_domain(rng).domain for _ in range(2000)}
        assert drawn == {"d0.example", "d2.example"}

    @given(_SEEDS, st.floats(min_value=1e-3, max_value=1e4),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_path_draw(self, seed, median, sigma):
        domain = DomainProfile("d.example", median, sigma)
        ours, theirs = _twins(seed)
        reference = LogNormal(median, sigma).bind(theirs)
        for _ in range(5):
            assert ours.lognormvariate(
                domain.path_mu, domain.path_sigma) == reference.sample()
        assert ours.getstate() == theirs.getstate()

    def test_weights_are_validated_once_at_construction(self):
        # random.choices' own refusals, raised where the weights are
        # given rather than at the first draw.
        for weights in ([0.0], [0.0, 0.0], [float("inf")],
                        [float("nan")]):
            with pytest.raises(ValueError):
                _app(weights)
        with pytest.raises(ValueError):
            AppCatalog([AppProfile("p", "n", "c", _app([1.0]).domains,
                                   weight=0.0)])

    def test_a_domain_is_validated_as_lognormal_validates(self):
        for median, sigma in ((0.0, 0.5), (-1.0, 0.5), (10.0, -0.1)):
            with pytest.raises(ValueError):
                LogNormal(median, sigma)
            with pytest.raises(ValueError):
                DomainProfile("d.example", median, sigma)


# -- work counts ------------------------------------------------------

class TestSetUpWorkPerRun:
    """A run's set-up, as counts: one population, one catalog, and no
    generator seeded only to be thrown away."""

    CONFIG = CampaignConfig(scale=0.0005, seed=5)

    def test_three_shards_inline_set_up_once(self, tmp_path):
        with mock.patch.object(Population, "__init__", autospec=True,
                               side_effect=Population.__init__
                               ) as populations, \
                mock.patch.object(campaign_module, "build_catalog",
                                  wraps=build_catalog) as catalogs, \
                mock.patch.object(distributions, "random",
                                  wraps=random) as seen:
            runner = ShardedCampaign(self.CONFIG, workers=1, n_shards=3,
                                     shard_dir=str(tmp_path))
            run = runner.run()
        assert len(run.paths) == 3 and run.total_records > 2351
        # The population is the one ShardedCampaign plans shards on.
        assert [call.args[0] for call in populations.call_args_list] \
            == [runner.population]
        assert catalogs.call_count == 1
        # Every per-device distribution is bound as it is built: the
        # distributions module constructs no generator of its own
        # (it seeded twelve throwaway Random(0) a device).
        assert seen.Random.call_count == 0

    def test_nothing_outlives_the_run(self, tmp_path):
        runner = ShardedCampaign(self.CONFIG, workers=1, n_shards=2,
                                 shard_dir=str(tmp_path))
        runner.run()
        assert sharding._worker_campaign is None
        assert not any(isinstance(value, (Campaign, AppCatalog))
                       for value in vars(runner).values())

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the counting wrappers reach a worker by fork only")
    def test_a_pool_worker_builds_its_campaign_once(self, tmp_path):
        log = str(tmp_path / "work.log")
        campaign_init = Campaign.__init__
        write_shard = sharding._write_shard

        def note(what):
            # One O_APPEND write a line: whole lines from any process.
            with open(log, "a") as handle:
                handle.write("%s %d\n" % (what, os.getpid()))

        def counted_campaign(self, *args, **kwargs):
            note("build")
            campaign_init(self, *args, **kwargs)

        def counted_write(*args):
            note("shard")
            return write_shard(*args)

        with mock.patch.object(Campaign, "__init__", counted_campaign), \
                mock.patch.object(sharding, "_write_shard",
                                  counted_write):
            run = ShardedCampaign(
                self.CONFIG, workers=2, n_shards=6,
                shard_dir=str(tmp_path / "shards")).run()
        assert len(run.paths) == 6
        with open(log) as handle:
            noted = [line.split() for line in handle]
        builders = [int(pid) for what, pid in noted if what == "build"]
        writers = [int(pid) for what, pid in noted if what == "shard"]
        assert len(writers) == 6
        # One build a worker process, however the pool dealt the six
        # shards -- and none in the parent.
        assert len(builders) == len(set(builders)) == 2
        assert set(writers) <= set(builders)
        assert os.getpid() not in builders
        assert sharding._worker_campaign is None


# -- dead work stays deleted ------------------------------------------

class TestDeadWorkDeleted:
    def test_install_step_and_path_cache_are_gone(self):
        # `installed` is a word other packages use for other things;
        # the generator's own packages are where it must not return.
        gone = re.compile(r"installed|apps_per_device|sample_apps"
                          r"|sample_path_ms|_path_dist")
        hits = []
        for package in ("crowd", "sim"):
            folder = os.path.join(SRC, package)
            for name in sorted(os.listdir(folder)):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        hits += ["%s/%s:%d" % (package, name, number)
                                 for number, line in enumerate(handle, 1)
                                 if gone.search(line)]
        assert hits == []

    def test_config_round_trips_through_asdict(self):
        config = CampaignConfig(scale=0.25, seed=99, tail_prob=0.5)
        assert "apps_per_device" not in asdict(config)
        assert CampaignConfig(**asdict(config)) == config
