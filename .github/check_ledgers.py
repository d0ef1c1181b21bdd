"""Checks every BENCH_*.json ledger in the working directory, the E18
phase surfaces (BENCH_surface*.json) excepted.

Every ledger must carry the envelope keys and hold every floor it records.
The engine benches' observers must be live registry snapshots, the scale
rows must report the sampler's try rate, and the service run must be
bit-identical to its in-process twin.

Usage, from the workspace root: python3 .github/check_ledgers.py
"""
import glob
import json

ENVELOPE = ("experiment", "mode", "available_parallelism", "metrics", "rows",
            "floors", "observer")
ENGINE_OBSERVED = ("BENCH_kernels.json", "BENCH_async.json", "BENCH_sampler.json",
                   "BENCH_obs_overhead.json", "BENCH_scale.json")

names = [n for n in sorted(glob.glob("BENCH_*.json")) if not n.startswith("BENCH_surface")]
assert names, "no BENCH_*.json ledger found"
for name in names:
    doc = json.load(open(name))
    missing = [key for key in ENVELOPE if key not in doc]
    assert not missing, f"{name}: missing {missing}"
    assert isinstance(doc["experiment"], str), name
    assert doc["mode"] in ("quick", "full"), name
    assert isinstance(doc["metrics"], dict), name
    assert all("scenario" in row for row in doc["rows"]), name
    for floor in doc["floors"]:
        assert floor["value"] is not None and floor["value"] >= floor["floor"], \
            f"{name}: broken floor {floor}"
    if name in ENGINE_OBSERVED:
        observer = doc["observer"]
        for key in ("counters", "gauges", "histograms"):
            assert isinstance(observer[key], dict), f"{name}: observer {key}"
        for hist in observer["histograms"].values():
            assert {"count", "sum", "mean", "buckets"} <= hist.keys(), name
        counters = observer["counters"]
        rounds = counters["engine_rounds_total"]
        assert rounds > 0, f"{name}: no rounds counted"
        walls = observer["histograms"]["engine_round_wall_ns"]["count"]
        assert walls == rounds, f"{name}: {walls} round walls for {rounds} rounds"
    if name == "BENCH_scale.json":
        rows = doc["rows"]
        assert all("sampler_tries_per_draw" in row for row in rows), rows
        gnp = [row for row in rows if row["scenario"].startswith("implicit_gnp")]
        assert gnp and gnp[0]["sampler_tries_per_draw"] > 1.0, gnp
        assert counters["sampler_tries_total"] >= counters["sampler_accepts_total"] > 0, counters
    if name == "BENCH_service.json":
        metrics = doc["metrics"]
        assert doc["experiment"] == "e19_service_load", doc["experiment"]
        assert metrics["bit_identical_jobs"] == metrics["total_jobs"] > 0, metrics
        assert metrics["jobs_per_sec"] > 0, metrics
    print(f"{name}: ok")
