"""The benchmark's child processes, one role per invocation.

    child.py import                 import the CLI entry-point module, print
                                    how many modules that loaded
    child.py cli ARGV...            run kratzerml.shell:main(ARGV) and exit
                                    with its code, as the console script does
    child.py cli-traced SPANS ARGV...   the same, traced, spans dumped to SPANS
    child.py serve                  import once, then run one operation per
                                    JSON line read on stdin (closed loop),
                                    timing the reference loop around each

Every role puts the checkout's src first on sys.path and refuses to run
unless kratzerml is imported from there, so that a stale installed copy
is never measured.
"""

import os
import sys

# os.path rather than pathlib: the import role counts the modules the
# package loads, so this file loads nothing a bare interpreter lacks
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
EXIT_STALE = 70


def _import_shell():
    sys.path.insert(0, SRC)
    import kratzerml
    import kratzerml.shell

    origin = os.path.realpath(kratzerml.__file__)
    if not origin.startswith(SRC + os.sep):
        sys.stderr.write(f"kratzerml imported from {origin}, not from {SRC}\n")
        sys.exit(EXIT_STALE)
    return kratzerml.shell


def _serve(shell) -> None:
    import contextlib
    import io
    import json
    import time
    import traceback

    from refloop import reference_s

    reply = sys.stdout
    tracer = None

    def send(doc: dict) -> None:
        reply.write(json.dumps(doc) + "\n")
        reply.flush()

    send({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            buf = io.StringIO()
            if tracer is not None:
                tracer.op_id += 1
            ref_before = reference_s()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                c0 = time.process_time()
                try:
                    rc = shell.main(request["argv"])
                except SystemExit as exc:  # argparse rejects argv this way
                    rc = exc.code
                except Exception:
                    rc = -1
                    buf.write(traceback.format_exc())
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            ref = (ref_before + reference_s()) / 2
            send({"rc": rc, "out": buf.getvalue(), "wall": wall, "cpu": cpu,
                  "ref": ref})
        elif "trace" in request:
            import spans

            tracer = spans.Tracer()
            send({"installed": spans.install(tracer)})
        elif "quit" in request:
            if tracer is not None:
                tracer.dump(request["quit"])
            send({"quit": True})
            return


def _traced_main(shell, spans_path: str, argv: list[str]) -> int:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return shell.main(argv)
    finally:
        tracer.dump(spans_path)


def main() -> None:
    role = sys.argv[1]
    if role == "import":
        before = len(sys.modules)
        _import_shell()
        print(len(sys.modules) - before)
    elif role == "cli":
        sys.exit(_import_shell().main(sys.argv[2:]))
    elif role == "cli-traced":
        sys.exit(_traced_main(_import_shell(), sys.argv[2], sys.argv[3:]))
    elif role == "serve":
        _serve(_import_shell())
    else:
        sys.exit(f"unknown role {role!r}")


if __name__ == "__main__":
    main()
