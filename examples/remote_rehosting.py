#!/usr/bin/env python3
"""Out-of-process legacy components: supervision with real deadlines.

Everything else in the repo executes the legacy component *in process*
— faithful to the paper's observations, but a polite fiction about its
failure modes: a real legacy binary can crash, hang, or babble, and an
in-process harness can at best abandon the thread it hung.  This demo
runs the RailCab rear shuttle behind the supervised subprocess ABI
(``repro.legacy.remote``, see ``docs/remote.md``):

1. re-host the component in its own process and prove the convoy
   property — verdicts and iteration records are bit-identical to the
   in-process run;
2. let a seeded fault profile hang the component *inside the host
   process* and watch the per-step deadline SIGKILL it for real;
3. SIGKILL the host mid-synthesis (``kill -9`` chaos) — the loop
   recovers through the crash-fault path and still proves the
   property, and no murdered process ever manufactures a violation;
4. rehost back to back: from the second generic launch on, each one
   leases the warm spare host the previous launch started.

Run with::

    python examples/remote_rehosting.py
"""

import dataclasses
import os
import signal
import time

from repro import railcab
from repro.errors import TestTimeoutError
from repro.legacy.remote import RemoteComponent, RemotePolicy, rehost
from repro.obs import CallbackProgressSink, Tracer, env_sinks
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict, summarize
from repro.testing import FaultKind, FaultProfile


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def convoy_synthesizer(settings=None) -> IntegrationSynthesizer:
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        settings=settings,
        port="rearRole",
    )


def main() -> None:
    banner("1. Prove the convoy property against an out-of-process component")
    in_process = convoy_synthesizer().run()
    remote_loop = convoy_synthesizer(SynthesisSettings(remote=True))
    result = remote_loop.run()
    assert result.verdict is Verdict.PROVEN
    print(summarize(result))
    stats = remote_loop.component.remote_stats
    print(f"host lifecycle: {stats}")
    assert result.iteration_count == in_process.iteration_count
    assert all(r == s for r, s in zip(result.iterations, in_process.iterations))
    print("iteration records: bit-identical to the in-process run")

    banner("2. A real deadline: a hung host is SIGKILL-ed, not abandoned")
    hang = dataclasses.replace(
        FaultProfile.single(FaultKind.HANG, 1.0, seed=7), hang_seconds=60.0
    )
    with rehost(
        railcab.correct_rear_shuttle(convoy_ticks=1),
        RemotePolicy(step_deadline=0.5),
        fault_profile=hang,
    ) as component:
        with component.inject_faults():
            try:
                component.step(frozenset())
            except TestTimeoutError as error:
                print(f"caught: {error}")
        assert not component.alive
        component.reset()  # lazy respawn on the next use
        print(f"after respawn: {component!r}")
        print(f"host lifecycle: {component.remote_stats}")

    banner("3. kill -9 mid-synthesis: sound recovery, never a false verdict")
    state: dict = {}

    def killer(event):
        if event.name == "iteration.started" and event.payload.get("iteration") == 2:
            if "done" not in state:
                state["done"] = True
                pid = state["synth"].component.pid
                print(f"SIGKILL host pid {pid} at iteration 2")
                os.kill(pid, signal.SIGKILL)

    # An explicit stream is used exactly as given, so it adds the sinks
    # of $REPRO_TRACE/$REPRO_BLACKBOX itself to keep them for this run.
    chaos_loop = convoy_synthesizer(
        SynthesisSettings(remote=True, tracer=Tracer(CallbackProgressSink(killer), *env_sinks()))
    )
    state["synth"] = chaos_loop
    survived = chaos_loop.run()
    assert survived.verdict is not Verdict.REAL_VIOLATION
    assert survived.verdict is Verdict.PROVEN  # the component IS correct
    print(summarize(survived))
    print(f"host lifecycle: {chaos_loop.component.remote_stats}")

    banner("4. Back-to-back rehosts lease the warm spare host")
    # Each launch from the second on leases the spare the previous one
    # started and starts the next; every host still serves one component.
    # A factory-served host never leases the spare: it shows a cold start.
    start = time.perf_counter()
    with RemoteComponent("repro.railcab:correct_rear_shuttle") as cold:
        cold_handshake = time.perf_counter() - start
        print(f"cold factory host: pid {cold.pid}, handshake {cold_handshake * 1e3:.1f}ms")
    pids = []
    for launch in range(3):
        time.sleep(1.0)  # the caller's own work: the spare warms meanwhile
        start = time.perf_counter()
        with rehost(railcab.correct_rear_shuttle(convoy_ticks=1)) as instance:
            handshake = time.perf_counter() - start
            outcome = instance.step(frozenset())
            pids.append(instance.pid)
            print(
                f"rehost {launch}: pid {instance.pid}, handshake {handshake * 1e3:.1f}ms "
                f"({handshake / cold_handshake:.3f}x cold), stepped -> {sorted(outcome.outputs)}"
            )
    assert len(set(pids)) == len(pids)  # a host is never reused


if __name__ == "__main__":
    main()
