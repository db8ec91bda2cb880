"""One faradaycorr CLI invocation in this fresh interpreter, with its timings.

    python3 bench/cli_op.py MODE REPORT.json -- exact --config run.yaml --out out/

The invocation is what the ``faradaycorr`` console script does: import
``faradaycorr.cli`` and call ``main`` with the arguments. MODE adds:

* ``run``   the import time and the time spent in ``cli.main``
* ``trace`` spans around the package's public functions (see tracer.py)
* ``alloc`` the peak traced allocation of the allocating paths; tracemalloc
            slows the run down, so this is a pass of its own
* ``setup`` no computation: stop once the run is ready to compute, after
            the import, ``load_config``, ``validate_config`` and the
            ``build_*`` calls, and report that moment on the monotonic clock

The report is JSON written to REPORT.json; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
import warnings

from tracer import AllocRecorder, SpanRecorder, now


def ready_to_compute(config_path: str) -> None:
    """Everything a CLI run does before its first computation."""
    from faradaycorr import config as cfg
    from faradaycorr.weak_measurement import ProtocolWarning

    raw = cfg.validate_config(cfg.load_config(config_path))
    if raw["command"] == "sweep":
        sweep = raw["sweep"]
        variants = []
        for value in sweep["values"]:
            variant = cfg.set_config_path(raw, sweep["path"], value)
            variant["command"] = sweep["command"]
            variant.pop("sweep")
            variants.append(cfg.validate_config(variant))
    else:
        variants = [raw]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProtocolWarning)
        for doc in variants:
            cfg.build_protocols(doc["protocol"])
            mc = doc.get("mc", {})
            if mc.get("mode") == "semiclassical_field":
                cfg.build_field(mc["field"])
            else:
                cfg.build_model(doc["model"])


def main() -> int:
    mode, report_path = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    if mode == "alloc":
        tracemalloc.start()
    t0 = now()
    import faradaycorr.cli

    report = {"import_s": now() - t0, "package": faradaycorr.__file__}
    if mode == "setup":
        ready_to_compute(cli_args[cli_args.index("--config") + 1])
        report["ready"] = now()
        rc = 0
    else:
        recorder = {"trace": SpanRecorder, "alloc": AllocRecorder}.get(mode)
        if recorder is not None:
            recorder = recorder()
            recorder.install()
        t1 = now()
        rc = sys.modules["faradaycorr.cli"].main(cli_args)
        report["main_s"] = now() - t1
        if mode == "trace":
            report["spans"] = recorder.spans
            report["counters"] = recorder.counters
        elif mode == "alloc":
            report["peaks_mib"] = recorder.peaks_mib
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
