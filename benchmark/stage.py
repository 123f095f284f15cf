"""Run one protoseg stage in this process and report its measurements.

Usage: python3 stage.py <spec.json> <launch wall-clock time>

The spec names the stage (`cli` with an argv for `protoseg.cli.main`, or
`init_checkpoint`), the tracing mode (0 off, 1 spans, 2 tracemalloc) and
where to write the result JSON.  The stage wall and CPU times bracket only
the protoseg call; interpreter start-up and imports are reported apart
as `import_s`.
"""
import json
import resource
import sys
import time
from pathlib import Path


def _init_checkpoint(spec: dict) -> int:
    """Seeded, untrained checkpoint for a corpus (paper-shape set-up)."""
    from protoseg import checkpoint, model
    from protoseg.losses import LossConfig
    from protoseg.trainer import TrainConfig

    manifest = json.loads(Path(spec["manifest"]).read_text(encoding="utf-8"))
    model_cfg = model.ModelConfig(
        input_dim=spec["input_dim"],
        n_activities=int(manifest["C"]),
        n_prototypes=spec["n_prototypes"],
    )
    params = model.init_parameters(model_cfg, spec["seed"])
    checkpoint.save_checkpoint(
        checkpoint.Checkpoint(
            params=params,
            model=model_cfg,
            train=TrainConfig(seed=spec["seed"]),
            loss=LossConfig(),
            epoch=0,
            rng_digest="init",
        ),
        spec["checkpoint"],
    )
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    launched = float(sys.argv[2])
    from protoseg import cli

    import_s = time.time() - launched
    recorder = None
    counters: dict = {}
    if spec["trace"] == 1:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        counters = recorder.counters
    elif spec["trace"] == 2:
        import tracemalloc

        from tracing import install_infer_memory_probe

        install_infer_memory_probe(counters)
        tracemalloc.start()

    if spec["kind"] == "cli":
        call = lambda: cli.main(spec["argv"])  # noqa: E731
    else:
        call = lambda: _init_checkpoint(spec)  # noqa: E731
    if recorder is not None:
        call = recorder.span(spec["root"], call)

    t0, cpu0 = time.perf_counter(), time.process_time()
    rc = call()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "rc": rc,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": counters,
    }
    if recorder is not None:
        recorder.save(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
