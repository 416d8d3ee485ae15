"""Command-line interface: run and inspect reproductions from a shell.

Usage (``python -m repro <command> ...``):

* ``run`` — one consensus instance (any protocol, faults, attacks), with
  optional trace chart / JSON export;
* ``gallery`` — the full attack gallery against the transformed protocol
  as a table;
* ``attacks`` — list the attack catalogues and their fault profiles;
* ``params`` — the resilience arithmetic for a system size;
* ``report`` — aggregate a ``--metrics-out`` JSONL artifact into
  per-module / per-round tables (or JSON);
* ``campaign`` — scenario-matrix fault-injection campaigns with
  replayable counterexamples (``run`` / ``list`` / ``replay`` /
  ``shrink``; see ``docs/TESTING.md``);
* ``service`` — the long-lived BFT replicated key-value service:
  clients, batching, pipelining, checkpoints and state transfer
  (``run``, judged by the fault engine's oracles; see ``docs/SERVICE.md``);
* ``net`` — the deployed runtime: the same replica stack as real OS
  processes over TCP (``keygen`` / ``replica`` / ``client``; see
  ``docs/NET.md``);
* ``shard`` — the sharded multi-group service: partition the key space
  across independent replicated groups for aggregate throughput
  (``keygen`` / ``route`` / ``client`` / ``cluster`` / ``loopback``;
  see ``docs/SHARDING.md``);
* ``mc`` — small-scope model checking: drive the real module stack
  through *all* interleavings of a bounded world, check the paper's
  safety properties in every reachable state, and emit counterexamples
  as shrinkable campaign scenarios (``run`` / ``resume`` / ``replay``;
  see docs/MODELCHECK.md);
* ``perf`` — the deterministic performance smoke: a short saturation
  run plus a cached/uncached equivalence check, exported as canonical
  JSON for byte-identity pinning (``smoke``; see docs/PERFORMANCE.md).

Each leaf parser names its handler; a handler only builds the library
object that owns the rule (``run`` and ``gallery`` a campaign ``Scenario``,
``service run`` a ``FaultPlan``) and prints the result. Invalid
configurations (unknown attacks, malformed ``PID:VALUE`` pairs, fault
plans beyond the resilience bounds, ...) exit with status 2 via
:class:`~repro.errors.ConfigurationError` — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.analysis.reporting import print_table
from repro.errors import ConfigurationError, ReproError
from repro.sim.world import TRANSPORTS

CRASH_PROTOCOLS = ("hurfin-raynal", "chandra-toueg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Baldoni/Hélary/Raynal (DSN 2000): "
        "crash-to-arbitrary fault-tolerance transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name: str, handler: Callable, help: str, *parents):
        command = subparsers.add_parser(name, help=help, parents=parents)
        command.set_defaults(handler=handler)
        return command

    def group(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(
            dest=f"{name}_command", required=True
        )

    # Flag groups several verbs share.
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    keygen = argparse.ArgumentParser(add_help=False)
    keygen.add_argument("--out", required=True, metavar="FILE")
    keygen.add_argument("--clients", type=int, default=4)
    keygen.add_argument("--seed", type=int, default=0)
    keygen.add_argument("--host", default="127.0.0.1")
    keygen.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="replica i of group g listens on base + g*replicas + i; "
        "0 allocates free ports now",
    )
    genesis = argparse.ArgumentParser(add_help=False)
    genesis.add_argument("--genesis", required=True, metavar="FILE")
    client = argparse.ArgumentParser(add_help=False, parents=[genesis])
    client.add_argument(
        "--index", type=int, default=0, help="client identity index"
    )
    client.add_argument("op", choices=("set", "get", "status", "workload"))
    client.add_argument(
        "operands", nargs="*", help="set KEY VALUE | get KEY"
    )
    client.add_argument(
        "--requests", type=int, default=20, help="workload size"
    )
    client.add_argument("--concurrency", type=int, default=8)
    shards = argparse.ArgumentParser(add_help=False)
    shards.add_argument("--shards", type=int, default=2)
    shards.add_argument("--replicas-per-shard", type=int, default=4)
    kill = argparse.ArgumentParser(add_help=False)
    kill.add_argument(
        "--kill-shard", type=int, default=1,
        help="shard whose replica is killed mid-run",
    )
    kill.add_argument(
        "--kill-pid", type=int, default=2,
        help="replica to kill and rejoin by certified state transfer",
    )
    record_out = argparse.ArgumentParser(add_help=False)
    record_out.add_argument(
        "--out",
        help="write the canonical JSON record to this file (default: stdout)",
    )
    world = argparse.ArgumentParser(add_help=False)
    world.add_argument("--n", type=int, default=4, help="number of processes")
    world.add_argument("--seed", type=int, default=0)
    faults = argparse.ArgumentParser(add_help=False)
    faults.add_argument(
        "--attack",
        action="append",
        default=[],
        metavar="PID:NAME",
        help="install a Byzantine behaviour on PID (repeatable)",
    )
    faults.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-link drop probability in [0, 1) (docs/NETWORK.md)",
    )
    faults.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="none",
        help="reliable-channel layer over the faulty wire "
        "(no-retransmit is the ablation)",
    )
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument(
        "--preset",
        default="smoke",
        help="campaign preset: smoke (~55 scenarios), full (220), or the "
        "link-fault matrices lossy / partition (docs/NETWORK.md)",
    )
    preset.add_argument("--master-seed", type=int, default=0)
    recorded = argparse.ArgumentParser(add_help=False)
    recorded.add_argument("id", help="scenario id (sXXXXXXXXXXXX)")
    recorded.add_argument(
        "--artifact", required=True, help="campaign artifact holding the id"
    )

    run = leaf(sub, "run", cmd_run, "run one consensus instance", world, faults)
    run.add_argument(
        "--protocol",
        choices=("transformed",) + CRASH_PROTOCOLS,
        default="transformed",
    )
    run.add_argument(
        "--variant",
        choices=("standard", "echo-init"),
        default="standard",
        help="transformed-protocol variant",
    )
    run.add_argument(
        "--base",
        choices=CRASH_PROTOCOLS,
        default="hurfin-raynal",
        help="which crash protocol the transformation was applied to",
    )
    run.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="PID:TIME",
        help="crash PID at virtual TIME (repeatable)",
    )
    run.add_argument("--max-time", type=float, default=3_000.0)
    run.add_argument(
        "--dup",
        type=float,
        default=0.0,
        help="per-link duplication probability in [0, 1)",
    )
    run.add_argument(
        "--reorder",
        type=float,
        default=0.0,
        help="per-link burst-reorder probability in [0, 1)",
    )
    run.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="START:HEAL:GROUPS",
        help="sever cross-group links during [START, HEAL), e.g. "
        "40:120:0,1|2,3 (repeatable)",
    )
    run.add_argument(
        "--muteness",
        choices=("oracle", "timeout", "round-aware", "adaptive"),
        default="oracle",
        help="◇M implementation (transformed protocol only)",
    )
    run.add_argument(
        "--chart", action="store_true", help="print the message-sequence chart"
    )
    run.add_argument(
        "--chart-rows", type=int, default=60, help="chart row budget"
    )
    run.add_argument(
        "--json", metavar="FILE", help="export the trace as JSON to FILE"
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="export metrics + trace as a schema-versioned JSONL artifact "
        "(read it back with `python -m repro report FILE`)",
    )

    report = leaf(
        sub, "report", cmd_report,
        "aggregate JSONL run artifacts into tables", as_json,
    )
    report.add_argument(
        "artifact",
        nargs="+",
        help="one or more .jsonl files written by --metrics-out / "
        "--metrics-dir; several files render per-pid rows grouped by "
        "artifact",
    )

    leaf(
        sub, "gallery", cmd_gallery,
        "run every attack against the transformed protocol", world,
    )

    attacks = leaf(sub, "attacks", cmd_attacks, "list the attack catalogues")
    attacks.add_argument(
        "--model",
        choices=("crash", "transformed", "both"),
        default="both",
    )

    params = leaf(sub, "params", cmd_params, "resilience arithmetic for n")
    params.add_argument("--n", type=int, required=True)

    campaign_sub = group(
        "campaign",
        "scenario-matrix fault-injection campaigns (docs/TESTING.md)",
    )

    c_run = leaf(
        campaign_sub, "run", cmd_campaign_run,
        "enumerate and run a campaign, export a JSONL artifact",
        preset, as_json,
    )
    c_run.add_argument(
        "--out",
        metavar="FILE",
        help="write the campaign artifact (JSONL, repro.campaign/v1) here",
    )
    c_run.add_argument(
        "--max-scenarios",
        type=int,
        help="truncate the enumeration (debugging aid)",
    )
    c_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip the automatic shrink of failing scenarios",
    )

    leaf(
        campaign_sub, "list", cmd_campaign_list,
        "list the scenario ids a preset enumerates", preset,
    )

    leaf(
        campaign_sub, "replay", cmd_campaign_replay,
        "re-run one recorded scenario and check the verdict reproduces",
        recorded, as_json,
    )
    leaf(
        campaign_sub, "shrink", cmd_campaign_shrink,
        "minimise a recorded failing scenario", recorded,
    )

    c_faults = leaf(
        campaign_sub, "faults", cmd_campaign_faults,
        "run fault plans at several fidelities and cross-check the "
        "verdicts (docs/FAULTS.md, docs/ADVERSARIES.md)",
        as_json,
    )
    c_faults.add_argument(
        "--preset",
        default="smoke",
        help="fault-plan preset: smoke, extended, zoo-smoke, zoo-extended, "
        "zoo-sweep, zoo-net-smoke or net-smoke",
    )
    c_faults.add_argument(
        "--plan",
        action="append",
        default=[],
        metavar="FILE",
        help="run this saved plan JSON instead of the preset (repeatable)",
    )
    c_faults.add_argument(
        "--fidelity",
        default="sim,loopback",
        metavar="F1,F2,...",
        help="comma-separated fidelities: sim, loopback, net",
    )
    c_faults.add_argument(
        "--out",
        metavar="FILE",
        help="write the cross-fidelity report (canonical JSON) here",
    )
    c_faults.add_argument(
        "--workdir",
        help="keep net-fidelity cluster state here (default: temp dirs)",
    )
    c_faults.add_argument(
        "--timeout", type=float, default=180.0,
        help="hard wall-clock cap per plan at the net fidelity (seconds)",
    )
    c_faults.add_argument(
        "--rehunt", type=int, default=0, metavar="K",
        help="flake hunting: re-run each verdict-disagreeing plan K more "
        "times per fidelity and report the verdict distribution",
    )
    c_faults.add_argument(
        "--shrink-out", metavar="DIR",
        help="delta-debug every plan that truly failed at the sim "
        "fidelity down to a minimal same-failure plan; write the "
        "shrunk plan JSONs here (docs/FAULTS.md)",
    )

    service_sub = group(
        "service",
        "run the BFT replicated key-value service (docs/SERVICE.md)",
    )

    s_run = leaf(
        service_sub, "run", cmd_service_run,
        "run one service deployment and report on it", world, faults,
    )
    s_run.add_argument("--clients", type=int, default=2)
    s_run.add_argument("--mode", choices=("open", "closed"), default="open")
    s_run.add_argument(
        "--rate", type=float, default=2.0, help="open-loop arrival rate"
    )
    s_run.add_argument(
        "--think", type=float, default=1.0, help="closed-loop think time"
    )
    s_run.add_argument("--requests", type=int, default=20,
                       help="requests per client")
    s_run.add_argument("--batch-size", type=int, default=4)
    s_run.add_argument("--batch-delay", type=float, default=1.0)
    s_run.add_argument(
        "--window", type=int, default=2, help="pipelining window W"
    )
    s_run.add_argument(
        "--checkpoint-interval", type=int, default=2,
        help="checkpoint every K applied slots",
    )
    s_run.add_argument("--request-timeout", type=float, default=40.0)
    s_run.add_argument(
        "--recover",
        action="append",
        default=[],
        metavar="PID:DOWN:UP",
        help="take PID down at DOWN, restart (state transfer) at UP "
        "(repeatable)",
    )
    s_run.add_argument(
        "--delay-model",
        choices=("uniform", "fixed", "exponential"),
        default="uniform",
    )
    s_run.add_argument("--max-time", type=float, default=2_500.0)
    s_run.add_argument(
        "--json", metavar="FILE", help="export the run record as JSON to FILE"
    )

    net_sub = group(
        "net",
        "deploy the replica stack as real processes over TCP "
        "(docs/NET.md)",
    )

    n_keygen = leaf(
        net_sub, "keygen", cmd_net_keygen,
        "write a genesis file (addresses, seed, knobs)", keygen,
    )
    n_keygen.add_argument("--replicas", type=int, default=4)
    n_keygen.add_argument("--name", default="local")

    n_replica = leaf(
        net_sub, "replica", cmd_net_replica,
        "run one replica until SIGTERM/SIGINT", genesis,
    )
    n_replica.add_argument("--pid", type=int, required=True)
    n_replica.add_argument(
        "--join",
        action="store_true",
        help="start by requesting certified state transfer (cold rejoin)",
    )
    n_replica.add_argument(
        "--metrics-dir",
        metavar="DIR",
        help="periodically export this node's JSONL metrics artifact here",
    )
    n_replica.add_argument(
        "--faults",
        metavar="FILE",
        help="execute this fault plan's link faults on outbound peer sends "
        "(docs/FAULTS.md)",
    )
    n_replica.add_argument(
        "--faults-origin",
        type=float,
        metavar="EPOCH",
        help="wall-clock epoch that maps to plan time zero (default: now)",
    )
    n_replica.add_argument(
        "--attack",
        metavar="NAME",
        help="run a Byzantine transformed-attack engine on this replica",
    )
    n_replica.add_argument(
        "--uvloop",
        action="store_true",
        help="run on uvloop if installed (REPRO_UVLOOP=1 works too); "
        "falls back to stock asyncio with a note when it is not",
    )

    leaf(
        net_sub, "client", cmd_net_client,
        "talk to a running cluster as a client", client,
    )

    shard_sub = group(
        "shard",
        "sharded multi-group service: partition the key space across "
        "independent replicated groups (docs/SHARDING.md)",
    )

    sh_keygen = leaf(
        shard_sub, "keygen", cmd_shard_keygen,
        "write a shard genesis (per-shard addresses, derived seeds)",
        keygen, shards,
    )
    sh_keygen.add_argument("--name", default="sharded")

    sh_route = leaf(
        shard_sub, "route", cmd_shard_route,
        "show which shard each key routes to",
    )
    sh_route.add_argument("keys", nargs="+", help="keys to route")
    sh_route.add_argument(
        "--genesis", metavar="FILE", help="read the shard count from this file"
    )
    sh_route.add_argument(
        "--shards", type=int, help="shard count (instead of --genesis)"
    )

    leaf(
        shard_sub, "client", cmd_shard_client,
        "talk to a running sharded deployment as a client", client,
    )

    sh_cluster = leaf(
        shard_sub, "cluster", cmd_shard_cluster,
        "spawn every shard as a local TCP cluster, commit a workload "
        "through a kill+restart in one shard, judge each shard "
        "(the shard smoke; exit 1 on a violation)",
        shards, kill,
    )
    sh_cluster.add_argument("--seed", type=int, default=7)
    sh_cluster.add_argument(
        "--workdir", help="keep genesis/logs/metrics here (default: temp)"
    )
    sh_cluster.add_argument("--concurrency", type=int, default=8)
    sh_cluster.add_argument("--requests", type=int, default=40)

    sh_loopback = leaf(
        shard_sub, "loopback", cmd_shard_loopback,
        "run the deterministic in-process shard twin and emit its "
        "canonical record (byte-identical across runs)",
        shards, kill, record_out,
    )
    sh_loopback.add_argument("--requests", type=int, default=24)
    sh_loopback.add_argument("--seed", type=int, default=0)
    sh_loopback.add_argument(
        "--no-kill", action="store_true", help="skip the kill/rejoin phase"
    )

    mc_sub = group(
        "mc",
        "small-scope model checking of the real stack (docs/MODELCHECK.md)",
    )

    m_run = leaf(
        mc_sub, "run", cmd_mc_run,
        "explore all interleavings of a bounded world, export an artifact",
        as_json,
    )
    m_run.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="write the exploration artifact (JSONL, repro.mc/v1) here",
    )
    m_run.add_argument(
        "--strategy", choices=("bfs", "dfs"), default="bfs",
        help="bfs sweeps layer by layer; dfs dives (counterexample hunts)",
    )
    m_run.add_argument("--max-depth", type=int, default=6)
    m_run.add_argument("--max-states", type=int, default=20_000)
    m_run.add_argument(
        "--max-rounds", type=int, default=2,
        help="states past this protocol round are not expanded",
    )
    m_run.add_argument("--seed", type=int, default=0)
    m_run.add_argument(
        "--adversary", type=int, metavar="SEAT",
        help="seat of the scripted adversary (requires --alphabet)",
    )
    m_run.add_argument(
        "--alphabet", metavar="A,B,...",
        help="comma-separated adversary actions: mute, equivocate-current, "
        "forge-attempt, drop-delivery, suppress-d",
    )
    m_run.add_argument(
        "--suppress-d", type=int, default=1, metavar="D",
        help="per-round budget of the suppress-d action (default 1)",
    )
    m_run.add_argument(
        "--mutation", metavar="NAME",
        help="inject a known-bad protocol mutation (checker self-test)",
    )
    m_run.add_argument(
        "--stop-on-violation", action="store_true",
        help="stop at the first counterexample instead of sweeping on",
    )

    m_resume = leaf(
        mc_sub, "resume", cmd_mc_resume,
        "continue an interrupted exploration from its artifact", as_json,
    )
    m_resume.add_argument("artifact", help="repro.mc/v1 artifact to resume")

    m_replay = leaf(
        mc_sub, "replay", cmd_mc_replay,
        "re-check a recorded counterexample and map it onto a "
        "campaign scenario",
        as_json,
    )
    m_replay.add_argument("artifact", help="repro.mc/v1 artifact with violations")
    m_replay.add_argument(
        "--index", type=int, default=0,
        help="which recorded violation to replay (default: first)",
    )
    m_replay.add_argument(
        "--shrink", action="store_true",
        help="hand the mapped scenario to the campaign shrinker",
    )

    leaf(
        group("perf", "deterministic performance smoke (docs/PERFORMANCE.md)"),
        "smoke", cmd_perf_smoke,
        "short saturation run + cached/uncached equivalence check",
        record_out,
    )

    experiments = leaf(
        sub, "experiments", cmd_experiments,
        "regenerate experiment tables (E1..E18) outside pytest",
    )
    experiments.add_argument(
        "--only",
        help="comma-separated experiment ids, e.g. e3,e13 (default: list them)",
    )
    experiments.add_argument(
        "--list", action="store_true", help="list available experiments"
    )

    return parser


def _colon_specs(flag: str, specs: Sequence[str], **fields: type) -> list[tuple]:
    """Split each ``A:B:...`` value of ``--flag`` into the typed ``fields``
    (their names spell the expected form in the error)."""
    parsed = []
    for spec in specs:
        parts = spec.split(":")
        try:
            if len(parts) == len(fields) and all(parts):
                parsed.append(
                    tuple(kind(part) for kind, part in zip(fields.values(), parts))
                )
                continue
        except ValueError:
            pass
        raise ConfigurationError(
            f"--{flag} expects {':'.join(fields)}, got {spec!r}"
        )
    return parsed


def _print_json(document: Any) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _run_async(args: argparse.Namespace, coroutine) -> Any:
    """``asyncio.run`` under the event-loop policy the invocation asked for."""
    import asyncio

    from repro.net.loop import install_event_loop

    install_event_loop(
        uvloop_flag=getattr(args, "uvloop", False),
        announce=lambda note: print(f"note: {note}", file=sys.stderr),
    )
    return asyncio.run(coroutine)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.properties import (
        check_crash_consensus,
        check_detection,
        check_vector_consensus,
    )
    from repro.analysis.tracefmt import render_sequence, trace_to_json
    from repro.campaign.scenario import Scenario, build_scenario_system
    from repro.observability.export import write_run_jsonl

    crashes = dict(_colon_specs("crash", args.crash, PID=int, TIME=float))
    attacks = dict(_colon_specs("attack", args.attack, PID=int, NAME=str))
    ct_base = args.protocol == "transformed" and args.base == "chandra-toueg"
    scenario = Scenario(
        protocol="transformed-ct" if ct_base else args.protocol,
        n=args.n,
        seed=args.seed,
        attacks=tuple(sorted(attacks.items())),
        crashes=tuple(sorted(crashes.items())),
        variant=args.variant,
        max_time=args.max_time,
        loss=args.loss,
        dup=args.dup,
        reorder=args.reorder,
        partitions=tuple(
            _colon_specs(
                "partition", args.partition, START=float, HEAL=float, GROUPS=str
            )
        ),
        transport=args.transport,
        muteness=args.muteness,
    )
    system = build_scenario_system(scenario)
    system.run(max_time=scenario.max_time)
    check = check_vector_consensus if scenario.is_transformed else check_crash_consensus
    report = check(system)

    print(f"run finished: {system.result.reason} at t={system.result.end_time:.2f}, "
          f"{system.world.network.messages_sent} messages")
    if scenario.has_link_faults:
        transport = system.world.transport
        print(
            f"link faults: {system.world.network.messages_dropped} dropped, "
            f"{system.world.network.messages_duplicated} duplicated, "
            f"{transport.retransmissions if transport else 0} retransmitted "
            f"(transport={args.transport})"
        )
    for pid in sorted(system.correct_pids):
        process = system.processes[pid]
        state = f"decided {process.decision!r} (round {process.decision_round})" \
            if process.decided else "undecided"
        print(f"  p{pid}: {state}")
    detection = check_detection(system)
    if detection.detectors_per_culprit:
        print(f"detections: {detection.detectors_per_culprit}")
    print(f"properties: termination={report.termination} "
          f"agreement={report.agreement} validity={report.validity}")
    for violation in report.violations:
        print(f"  violation: {violation}")
    if args.chart:
        print()
        print(render_sequence(system.world.trace, args.n, max_events=args.chart_rows))
    if args.json:
        _write_text(args.json, trace_to_json(system.world.trace))
        print(f"trace exported to {args.json}")
    if args.metrics_out:
        write_run_jsonl(
            args.metrics_out,
            system.world.trace,
            system.world.metrics,
            meta={
                "n": args.n,
                "seed": args.seed,
                "protocol": args.protocol,
                "variant": args.variant,
                "base": args.base,
                "attacks": dict(scenario.attacks),
                "crashes": dict(scenario.crashes),
            },
        )
        print(f"metrics artifact exported to {args.metrics_out}")
    return 0 if report.all_hold else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.run_report import (
        RunReport,
        artifacts_to_json,
        render_artifacts,
    )
    from repro.observability.export import read_run_jsonl

    if len(args.artifact) == 1:
        run_report = RunReport.from_artifact(read_run_jsonl(args.artifact[0]))
        if args.json:
            _print_json(run_report.to_json())
        else:
            print(run_report.render())
        return 0
    items = [(path, read_run_jsonl(path)) for path in args.artifact]
    if args.json:
        _print_json(artifacts_to_json(items))
    else:
        print(render_artifacts(items))
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    from repro.analysis.properties import check_detection, check_vector_consensus
    from repro.byzantine.adversary import TRANSFORMED_ATTACKS
    from repro.campaign.scenario import Scenario, build_scenario_system

    rows = []
    for name in sorted(TRANSFORMED_ATTACKS):
        seat = 0 if name in ("equivocate-current", "wrong-cert-current") else args.n - 1
        scenario = Scenario(
            "transformed", args.n, args.seed, attacks=((seat, name),)
        )
        system = build_scenario_system(scenario)
        system.run(max_time=scenario.max_time)
        report = check_vector_consensus(system)
        detection = check_detection(system)
        rows.append(
            [
                name,
                "yes" if report.all_hold else "NO",
                detection.detectors_per_culprit.get(seat, 0),
                "yes" if seat in detection.suspected_by_any else "no",
            ]
        )
    print_table(
        f"attack gallery (n={args.n}, seed={args.seed})",
        ["attack", "safe", "convictions", "suspected"],
        rows,
    )
    return 0 if all(row[1] == "yes" for row in rows) else 1


def cmd_attacks(args: argparse.Namespace) -> int:
    from repro.byzantine.adversary import CRASH_ATTACKS, TRANSFORMED_ATTACKS
    from repro.byzantine.ct_attacks import CT_ATTACKS

    def rows_for(catalog):
        return [
            [
                cls.profile.name,
                cls.profile.failure_class.value,
                cls.profile.detecting_module.value,
                cls.profile.description,
            ]
            for cls in sorted(catalog.values(), key=lambda c: c.profile.name)
        ]

    headers = ["name", "failure class", "owning module", "description"]
    if args.model in ("crash", "both"):
        print_table("crash-model attacks (Figure 2 victims)", headers,
                    rows_for(CRASH_ATTACKS))
    if args.model in ("transformed", "both"):
        print_table("transformed-model attacks (Figure 3 targets)", headers,
                    rows_for(TRANSFORMED_ATTACKS))
        print_table("transformed-CT attacks (second case study)", headers,
                    rows_for(CT_ATTACKS))
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    from repro.core.specs import (
        SystemParameters,
        certification_resilience,
        crash_resilience,
    )

    params = SystemParameters.for_n(args.n)
    print(f"n                          = {params.n}")
    print(f"crash resilience           = {crash_resilience(args.n)}  (floor((n-1)/2))")
    print(f"certification resilience C = {certification_resilience(args.n)}  (floor((n-1)/3))")
    print(f"arbitrary-fault bound F    = {params.f}  (min of the two)")
    print(f"quorum n-F                 = {params.quorum}")
    print(f"vector validity floor n-2F = {params.alpha}")
    return 0


def _preset_scenarios(args: argparse.Namespace) -> list:
    from repro.campaign.matrix import enumerate_scenarios
    from repro.campaign.matrix import campaign_spec

    return enumerate_scenarios(
        campaign_spec(args.preset), master_seed=args.master_seed
    )


def cmd_campaign_list(args: argparse.Namespace) -> int:
    scenarios = _preset_scenarios(args)
    rows = [
        [
            scenario.scenario_id,
            scenario.protocol,
            scenario.n,
            scenario.seed,
            scenario.delay_model,
            _fault_plan(scenario),
        ]
        for scenario in scenarios
    ]
    print_table(
        f"campaign {args.preset!r} (master seed {args.master_seed}, "
        f"{len(scenarios)} scenarios)",
        ["id", "protocol", "n", "seed", "delay", "fault plan"],
        rows,
    )
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign.artifact import write_campaign_jsonl
    from repro.campaign.runner import run_campaign
    from repro.campaign.shrink import shrink_scenario

    scenarios = _preset_scenarios(args)
    if args.max_scenarios is not None:
        if args.max_scenarios < 1:
            raise ConfigurationError(
                f"--max-scenarios must be positive, got {args.max_scenarios}"
            )
        scenarios = scenarios[: args.max_scenarios]
    result = run_campaign(scenarios)
    meta = {
        "preset": args.preset,
        "master_seed": args.master_seed,
        "scenarios": len(scenarios),
    }
    if args.out:
        write_campaign_jsonl(args.out, result, meta=meta)
    summary = result.summary()
    if args.json:
        _print_json(summary)
    else:
        print_table(
            f"campaign {args.preset!r} (master seed {args.master_seed})",
            ["verdict", "scenarios"],
            [list(row) for row in summary["verdicts"].items()],
        )
        print_table(
            "failure-class coverage (Section-2 taxonomy)",
            ["failure class", "scenarios"],
            [list(row) for row in summary["failure_class_coverage"].items()],
        )
        if args.out:
            print(f"campaign artifact exported to {args.out}")
    for record in result.failures:
        print(f"FAIL {record.scenario_id}: {'; '.join(record.outcome.violations)}")
        if not args.no_shrink:
            shrink = shrink_scenario(record.scenario)
            print(
                f"  minimal counterexample {shrink.minimal.scenario_id}: "
                f"{shrink.minimal.to_config()}"
            )
            for step in shrink.steps:
                print(f"    {step}")
    return 1 if result.failures else 0


def cmd_campaign_replay(args: argparse.Namespace) -> int:
    from repro.campaign.artifact import read_campaign_jsonl
    from repro.campaign.runner import run_scenario
    from repro.campaign.runner import record_matches

    artifact = read_campaign_jsonl(args.artifact)
    scenario = artifact.scenario_for(args.id)
    recorded = artifact.find(args.id)
    fresh = run_scenario(scenario)
    fresh_record = fresh.to_record()
    if args.json:
        _print_json(fresh_record)
    reproduced = record_matches(recorded, fresh)
    print(
        f"replay {args.id}: verdict={fresh.verdict} "
        f"({'matches the artifact' if reproduced else 'DIVERGED from the artifact'})"
    )
    for key in sorted(set(recorded) | set(fresh_record)):
        if recorded.get(key) != fresh_record.get(key):
            print(f"  {key}: recorded {recorded.get(key)!r}")
            print(f"  {key}: fresh    {fresh_record.get(key)!r}")
    return 0 if reproduced else 1


def cmd_campaign_shrink(args: argparse.Namespace) -> int:
    from repro.campaign.artifact import read_campaign_jsonl
    from repro.campaign.shrink import shrink_scenario

    scenario = read_campaign_jsonl(args.artifact).scenario_for(args.id)
    shrink = shrink_scenario(scenario)
    print(f"shrink {args.id} ({shrink.runs - 1} candidates tried):")
    for step in shrink.steps:
        print(f"  {step}")
    if not shrink.shrunk:
        print("  already minimal")
    print(
        f"minimal scenario {shrink.minimal.scenario_id} "
        f"(verdict {shrink.outcome.verdict}):"
    )
    _print_json(shrink.minimal.to_config())
    return 0


def _fault_plan(scenario) -> str:
    parts = [f"p{pid}:{name}" for pid, name in scenario.attacks]
    parts += [f"p{pid}@{time:g}" for pid, time in scenario.crashes]
    if scenario.collusion is not None:
        parts.append(scenario.collusion)
    if scenario.variant != "standard":
        parts.append(scenario.variant)
    for axis in ("loss", "dup", "reorder"):
        if getattr(scenario, axis):
            parts.append(f"{axis}={getattr(scenario, axis):g}")
    for start, heal, groups in scenario.partitions:
        parts.append(f"partition[{start:g},{heal:g}){groups}")
    if scenario.transport != "none":
        parts.append(scenario.transport)
    return " ".join(parts) or "fault-free"


def cmd_service_run(args: argparse.Namespace) -> int:
    """`repro service run`: one service deployment, judged by the fault
    engine's oracles under the fault plan its flags describe."""
    from repro.faults.plan import FaultPlan
    from repro.faults.sim_runner import run_service_plan
    from repro.service.config import ServiceConfig

    if args.loss and args.transport == "none":
        raise ConfigurationError(
            "--loss needs a reliable transport (--transport reliable); "
            "the service assumes reliable channels"
        )
    config = ServiceConfig(
        n_replicas=args.n,
        n_clients=args.clients,
        mode=args.mode,
        rate=args.rate,
        think=args.think,
        requests_per_client=args.requests,
        batch_size=args.batch_size,
        batch_delay=args.batch_delay,
        window=args.window,
        checkpoint_interval=args.checkpoint_interval,
        request_timeout=args.request_timeout,
        seed=args.seed,
    )
    attacks = dict(_colon_specs("attack", args.attack, PID=int, NAME=str))
    recoveries = _colon_specs("recover", args.recover, PID=int, DOWN=float, UP=float)
    plan = FaultPlan(
        name="service-run",
        seed=args.seed,
        n_replicas=args.n,
        requests=args.clients * args.requests,
        duration=args.max_time,
        kills=tuple(sorted(recoveries)),
        loss=args.loss,
        collusion=tuple(sorted(attacks.items())),
    )
    record = run_service_plan(
        plan, config, delay_model=args.delay_model, transport=args.transport
    )
    service, latency = record["service"], record["latency"]
    print_table(
        f"service run {record['id']} ({record['config']['name']})",
        ["measure", "value"],
        [
            ["verdict", record["verdict"]],
            ["end reason", record["run"]["end_reason"]],
            ["virtual end time", f"{record['run']['end_time']:.2f}"],
            ["messages sent", record["run"]["messages_sent"]],
            ["commands committed", service["committed_commands"]],
            ["requests completed", service["completed_requests"]],
            ["certified checkpoints", service["certified_checkpoints"]],
            ["state transfers", service["state_transfers"]],
            ["client resubmissions", service["resubmissions"]],
            ["latency p50", latency["p50"]],
            ["latency p99", latency["p99"]],
        ],
    )
    for violation in record["violations"]:
        print(f"  violation: {violation}")
    if args.json:
        _write_text(args.json, json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"run record exported to {args.json}")
    return 0 if record["verdict"] == "pass" else 1


def cmd_campaign_faults(args: argparse.Namespace) -> int:
    """`repro campaign faults`: the cross-fidelity fault-plan engine over
    a preset (the adversary zoo's matrices included) or saved plans."""
    from repro.faults.plan import FIDELITY_NET, FaultPlan
    from repro.faults.presets import FAULT_PRESETS
    from repro.faults.report import run_cross_fidelity
    from repro.faults.oracle import net_checks
    from repro.faults.shrink import CLAUSE_AXES, shrink_fault_plan

    if args.plan:
        plans = tuple(FaultPlan.load(path) for path in args.plan)
    else:
        preset = FAULT_PRESETS.get(args.preset)
        if preset is None:
            raise ConfigurationError(
                f"unknown faults preset {args.preset!r}; "
                f"known: {sorted(FAULT_PRESETS)}"
            )
        plans = preset
    fidelities = tuple(
        part.strip() for part in args.fidelity.split(",") if part.strip()
    )
    if not fidelities:
        raise ConfigurationError("--fidelity needs at least one fidelity")
    report = run_cross_fidelity(
        plans,
        fidelities,
        workdir=args.workdir,
        timeout=args.timeout,
        progress=lambda line: print(f"  running {line}", file=sys.stderr),
        rehunt=args.rehunt,
    )
    if args.out:
        report.save(args.out)
    if args.json:
        print(report.dumps(), end="")
    else:
        print_table(
            f"cross-fidelity fault campaign ({len(report.results)} plans "
            f"@ {', '.join(fidelities)})",
            ["plan", "id", "expect"]
            + list(fidelities)
            + ["agree", "expected"],
            [
                [
                    result.plan.name,
                    result.plan.plan_id,
                    result.plan.expect,
                ]
                + [
                    result.verdicts.get(fidelity, "-")
                    for fidelity in fidelities
                ]
                + [
                    "yes" if result.agree else "NO",
                    "yes" if result.expected else "NO",
                ]
                for result in report.results
            ],
        )
        if FIDELITY_NET in fidelities:
            for result in report.results:
                print(
                    f"{result.plan.name} @ net checked: "
                    f"{', '.join(net_checks(result.plan))}"
                )
        if args.out:
            print(f"cross-fidelity report exported to {args.out}")
    for result in report.results:
        for fidelity, (verdict, violations, _obs) in sorted(
            result.outcomes.items()
        ):
            if verdict == "fail":
                print(
                    f"FAIL {result.plan.name} @ {fidelity}: "
                    f"{'; '.join(violations)}"
                )
        if result.rehunt:
            for fidelity, counts in sorted(result.rehunt.items()):
                distribution = ", ".join(
                    f"{verdict} x{count}"
                    for verdict, count in sorted(counts.items())
                )
                print(
                    f"rehunt {result.plan.name} @ {fidelity}: {distribution}"
                )
    if args.shrink_out:
        out_dir = Path(args.shrink_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in report.results:
            if result.verdicts.get("sim") != "fail":
                continue
            shrunk = shrink_fault_plan(result.plan)
            path = shrunk.minimal.save(
                out_dir / f"{result.plan.name}-shrunk.json"
            )
            kept = sum(
                len(getattr(shrunk.minimal, axis)) for axis in CLAUSE_AXES
            )
            print(
                f"shrunk {result.plan.name}: {len(shrunk.steps)} clause(s) "
                f"removed, {kept} kept, {shrunk.runs} runs, "
                f"kinds={sorted(shrunk.kinds)} -> {path}"
            )
    return 0 if report.ok else 1


def cmd_net_keygen(args: argparse.Namespace) -> int:
    from repro.net.genesis import Genesis
    from repro.net.cluster import group_addresses

    addresses = group_addresses(
        1, args.replicas, host=args.host, base_port=args.base_port
    )[0]
    genesis = Genesis(
        name=args.name,
        seed=args.seed,
        n_replicas=args.replicas,
        max_clients=args.clients,
        addresses=addresses,
    )
    path = genesis.save(args.out)
    print(f"genesis {genesis.genesis_id()} written to {path}")
    for pid, (host, port) in enumerate(addresses):
        print(f"  replica {pid}: {host}:{port}")
    return 0


def cmd_net_replica(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.clock import WallScheduler
    from repro.net.genesis import Genesis
    from repro.net.node import NetNode, serve_replica

    async def serve() -> int:
        genesis = Genesis.load(args.genesis)
        scheduler = WallScheduler(asyncio.get_running_loop())
        node_kwargs: dict[str, Any] = {"join": args.join}
        if args.metrics_dir:
            node_kwargs["metrics_path"] = (
                Path(args.metrics_dir) / f"node-{args.pid}.jsonl"
            )
        if args.attack is not None:
            # The collusion axis: this replica runs an attack engine.
            from repro.byzantine.adversary import transformed_attack

            node_kwargs["engine_factory"] = transformed_attack(
                args.pid, args.attack
            )[args.pid]
        if args.faults is None:
            node = NetNode(genesis, args.pid, scheduler, **node_kwargs)
            return await serve_replica(node)
        from repro.faults.net_runner import plan_replica
        from repro.faults.plan import FaultPlan

        node, link = plan_replica(
            FaultPlan.load(args.faults),
            genesis,
            args.pid,
            scheduler,
            args.faults_origin,
            **node_kwargs,
        )
        return await serve_replica(node, link)

    return _run_async(args, serve())


def cmd_net_client(args: argparse.Namespace) -> int:
    from repro.net.client import NetClient
    from repro.net.genesis import Genesis

    return _drive_client(args, NetClient, Genesis.load(args.genesis))


def cmd_shard_client(args: argparse.Namespace) -> int:
    from repro.shard.client import ShardedNetClient
    from repro.shard.genesis import ShardGenesis

    return _drive_client(args, ShardedNetClient, ShardGenesis.load(args.genesis))


def _drive_client(args: argparse.Namespace, client_class, genesis) -> int:
    """One ``net client`` / ``shard client`` operation. A sharded client's
    lines also name the shard that served the key."""
    from repro.net.client import workload

    async def drive() -> int:
        client = client_class(genesis, args.index)
        sharded = hasattr(client, "shard_for")

        def noted(text: str, key: str, *notes: str) -> str:
            if sharded:
                notes = (f"shard {client.shard_for(key)}",) + notes
            return f"{text} ({', '.join(notes)})" if notes else text

        try:
            if args.op == "set":
                if len(args.operands) != 2:
                    raise ConfigurationError("set expects KEY VALUE")
                key, value = args.operands
                slot = await client.set(key, value)
                print(noted(f"committed {key}={value}", key, f"slot {slot}"))
            elif args.op == "get":
                if len(args.operands) != 1:
                    raise ConfigurationError("get expects KEY")
                key = args.operands[0]
                found, value = await client.get(key)
                print(noted(f"{key} = {value!r}" if found else f"{key} is unset", key))
            elif args.op == "status":
                replies = await client.status()
                groups = sorted(replies.items()) if sharded else [(None, replies)]
                for shard, group in groups:
                    if sharded:
                        print(f"shard {shard}:")
                    for pid, status in sorted(group.items()):
                        print(
                            f"{'  ' if sharded else ''}replica {pid}: "
                            f"applied={status.applied} "
                            f"committed={status.committed} "
                            f"digest={status.digest[:12]} "
                            f"transfers={status.transfers} "
                            f"rejected={status.suffix_rejections}"
                        )
            else:
                stats = await workload(
                    client, args.requests, concurrency=args.concurrency
                )
                _print_json(stats)
        finally:
            await client.close()
        return 0

    return _run_async(args, drive())


def cmd_shard_keygen(args: argparse.Namespace) -> int:
    from repro.net.cluster import group_addresses
    from repro.shard.genesis import ShardGenesis

    addresses = group_addresses(
        args.shards,
        args.replicas_per_shard,
        host=args.host,
        base_port=args.base_port,
    )
    genesis = ShardGenesis(
        name=args.name,
        seed=args.seed,
        n_shards=args.shards,
        replicas_per_shard=args.replicas_per_shard,
        max_clients=args.clients,
        addresses=addresses,
    )
    genesis.validate()
    path = genesis.save(args.out)
    print(f"shard genesis {genesis.shard_genesis_id()} written to {path}")
    for shard in range(args.shards):
        sub_genesis = genesis.genesis_for(shard)
        print(f"  shard {shard} (genesis {sub_genesis.genesis_id()}):")
        for pid, (host, port) in enumerate(addresses[shard]):
            print(f"    replica {pid}: {host}:{port}")
    return 0


def cmd_shard_route(args: argparse.Namespace) -> int:
    from repro.shard.genesis import ShardGenesis
    from repro.shard.keymap import shard_of

    if args.genesis:
        n_shards = ShardGenesis.load(args.genesis).n_shards
    elif args.shards is not None:
        n_shards = args.shards
    else:
        raise ConfigurationError("route needs --genesis or --shards")
    for key in args.keys:
        print(f"{key} -> shard {shard_of(key, n_shards)}")
    return 0


def cmd_shard_cluster(args: argparse.Namespace) -> int:
    from repro.shard.cluster import run_shard_smoke

    verdict = _run_async(
        args,
        run_shard_smoke(
            shards=args.shards,
            replicas_per_shard=args.replicas_per_shard,
            requests=args.requests,
            kill_shard=args.kill_shard,
            kill_pid=args.kill_pid,
            seed=args.seed,
            workdir=args.workdir,
            concurrency=args.concurrency,
        ),
    )
    _print_json(verdict)
    return 0 if verdict["ok"] else 1


def _emit_record(
    args: argparse.Namespace, text: str, smoke: str, ok: bool, detail: str
) -> int:
    """A smoke's canonical record goes to ``--out`` when given, else to
    stdout; its one-line verdict goes to stderr."""
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    print(f"{smoke}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    return 0 if ok else 1


def cmd_shard_loopback(args: argparse.Namespace) -> int:
    from repro.shard.loopback import run_loopback_smoke, smoke_json

    record = run_loopback_smoke(
        shards=args.shards,
        replicas_per_shard=args.replicas_per_shard,
        requests=args.requests,
        seed=args.seed,
        kill_shard=None if args.no_kill else args.kill_shard,
        kill_pid=args.kill_pid,
    )
    return _emit_record(
        args, smoke_json(record), "shard loopback smoke", record["ok"],
        f"{record['shards']} shards x {record['replicas_per_shard']} "
        f"replicas, {record['completed']}/{record['requests']} completed",
    )


def _mc_summary(args: argparse.Namespace, result) -> int:
    record = {
        "config_id": result.config.config_id,
        "states_explored": result.states_explored,
        "states_pruned": result.states_pruned,
        "frontier_depth": result.frontier_depth,
        "transitions": result.transitions,
        "stop_reason": result.stop_reason,
        "violations": [
            {"path": [list(l) for l in v.path], "violations": list(v.violations)}
            for v in result.violations
        ],
    }
    if args.json:
        _print_json(record)
    else:
        counts = ("states_explored", "states_pruned", "frontier_depth",
                  "transitions", "stop_reason")
        print_table(
            f"mc exploration {result.config.config_id} "
            f"({result.config.strategy}, depth <= {result.config.max_depth})",
            ["metric", "value"],
            [[key.replace("_", " "), record[key]] for key in counts]
            + [["violations", len(result.violations)]],
        )
        for violation in result.violations:
            print(f"counterexample ({len(violation.path)} steps):")
            for problem in violation.violations:
                print(f"  {problem}")
    return 1 if result.violations else 0


def cmd_mc_run(args: argparse.Namespace) -> int:
    from repro.mc.config import McConfig
    from repro.mc.explorer import Explorer

    alphabet = tuple(
        part.strip() for part in (args.alphabet or "").split(",") if part.strip()
    )
    config = McConfig(
        adversary=args.adversary,
        alphabet=alphabet,
        max_depth=args.max_depth,
        max_states=args.max_states,
        max_rounds=args.max_rounds,
        strategy=args.strategy,
        mutation=args.mutation,
        seed=args.seed,
        stop_on_violation=args.stop_on_violation,
        suppress_d=args.suppress_d,
    )
    config.validate()
    return _mc_summary(args, Explorer(config, args.out).run())


def cmd_mc_resume(args: argparse.Namespace) -> int:
    from repro.mc.explorer import Explorer

    return _mc_summary(args, Explorer.resume(args.artifact))


def cmd_mc_replay(args: argparse.Namespace) -> int:
    """Re-check a recorded counterexample against the live stack, then
    map it onto a campaign scenario (optionally shrinking it)."""
    from repro.campaign.shrink import shrink_scenario
    from repro.mc.explorer import counterexample_scenario, load_artifact
    from repro.mc.predicates import check_state
    from repro.mc.stepper import Stepper
    from repro.mc.mutations import apply_mutation

    config, records = load_artifact(args.artifact)
    violations = [r for r in records if r["type"] == "violation"]
    if not violations:
        raise ConfigurationError(f"{args.artifact} records no violations")
    if not 0 <= args.index < len(violations):
        raise ConfigurationError(
            f"--index {args.index} out of range; artifact has "
            f"{len(violations)} violation(s)"
        )
    chosen = violations[args.index]
    path = tuple(tuple(label) for label in chosen["path"])
    with apply_mutation(config.mutation):
        stepper = Stepper.replay(config, path)
        reproduced = check_state(stepper.system)
        scenario = counterexample_scenario(config, path)
        shrink_record = None
        if args.shrink:
            shrunk = shrink_scenario(scenario)
            shrink_record = {
                "original_id": scenario.scenario_id,
                "minimal_id": shrunk.minimal.scenario_id,
                "minimal_config": shrunk.minimal.to_config(),
                "steps": list(shrunk.steps),
                "candidates_tried": shrunk.runs - 1,
            }
    record = {
        "path": [list(label) for label in path],
        "recorded": list(chosen["violations"]),
        "reproduced": reproduced,
        "reproduces": sorted(reproduced) == sorted(chosen["violations"]),
        "scenario": scenario.to_config(),
        "scenario_id": scenario.scenario_id,
        "shrink": shrink_record,
    }
    if args.json:
        _print_json(record)
    else:
        status = "reproduces" if record["reproduces"] else "DIVERGED"
        print(f"counterexample replay ({len(path)} steps): {status}")
        for problem in reproduced:
            print(f"  {problem}")
        print(f"campaign scenario: {scenario.scenario_id}")
        if shrink_record is not None:
            print(
                f"shrunk in {len(shrink_record['steps'])} step(s) to "
                f"scenario {shrink_record['minimal_id']}"
            )
    return 0 if record["reproduces"] else 1


def cmd_perf_smoke(args: argparse.Namespace) -> int:
    from repro.analysis.perf import smoke_json, smoke_ok, smoke_record

    record = smoke_record()
    return _emit_record(
        args, smoke_json(record) + "\n", "perf smoke", smoke_ok(record),
        f"{len(record['cells'])} cells, equivalence "
        f"{'held' if record['equivalence']['equivalent'] else 'BROKEN'}",
    )


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.suite import discover, run_experiments

    available = discover()
    if args.list or not args.only:
        print_table(
            "available experiments (see DESIGN.md §3 / EXPERIMENTS.md)",
            ["id", "benchmark file"],
            [[key, available[key].name] for key in sorted(
                available, key=lambda k: int(k[1:])
            )],
        )
        if not args.only:
            print("run some with: python -m repro experiments --only e3,e13")
        return 0
    selected = [key.strip() for key in args.only.split(",") if key.strip()]
    results = run_experiments(only=selected)
    for key, result in results.items():
        rows = result[0] if isinstance(result, tuple) else result
        width = max(len(row) for row in rows)
        print_table(
            f"{key.upper()} — {available[key].stem.removeprefix('test_')}",
            [f"col {i}" for i in range(width)],
            rows,
        )
    print(
        "(column legends and shape assertions live in the benchmark files; "
        "run `pytest benchmarks/ --benchmark-only -s` for the full report)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
