"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Run the compromised-controller story inline: deploy, attack, detect.
``query``
    Build a deployment, optionally arm an attack, and run one query
    through the full in-band protocol.
``topologies``
    List the built-in topology generators with their sizes.
``experiments``
    List the reproduction's experiment index (DESIGN.md §4).
``stats``
    Run the query battery on a fresh deployment and print the engine's
    cache/serving counters, including the per-query-class breakdown of
    matrix-served vs wildcard-fallback answers, the matrix-repair
    counters under FlowMod churn, and the serving tier's scheduler
    counters (admission, coalescing, batching).
``serve-bench``
    Drive the closed-loop multi-tenant workload generator against both
    the serial frontend and the serving tier and print the throughput /
    latency-percentile table (the E21 quick-look).
``federate``
    Generate a synthetic AS-level internetwork, partition it into one
    provider domain per AS, run a federated reachability query in each
    mode with timings, and print the herd-immunity audit (the E22
    quick-look).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from repro.core.queries import (
    BandwidthQuery,
    FairnessQuery,
    GeoLocationQuery,
    IsolationQuery,
    PathLengthQuery,
    Query,
    ReachableDestinationsQuery,
    ReachingSourcesQuery,
    TransferFunctionQuery,
    WaypointAvoidanceQuery,
)
from repro.dataplane.topologies import (
    abilene_topology,
    fat_tree_topology,
    isp_topology,
    linear_topology,
    ring_topology,
    single_switch_topology,
    tree_topology,
    waxman_topology,
)
from repro.dataplane.topology import Topology
from repro.testbed import Testbed, build_testbed

QUERIES: Dict[str, Callable[[], Query]] = {
    "isolation": IsolationQuery,
    "reachable": ReachableDestinationsQuery,
    "sources": ReachingSourcesQuery,
    "geo": GeoLocationQuery,
    "avoid-offshore": lambda: WaypointAvoidanceQuery(
        forbidden_regions=("offshore",)
    ),
    "path-length": PathLengthQuery,
    "fairness": FairnessQuery,
    "bandwidth": lambda: BandwidthQuery(minimum_mbps=500),
    "transfer-function": TransferFunctionQuery,
}

EXPERIMENTS = [
    ("E1", "Fig. 1 integrity-request flow", "bench_fig1_integrity_request.py"),
    ("E2", "Fig. 2 auth-reply flow", "bench_fig2_auth_reply.py"),
    ("E3", "isolation case study (§IV-B1)", "bench_isolation_case_study.py"),
    ("E4", "geo-location case study (§IV-B2)", "bench_geo_case_study.py"),
    ("E5", "low resource requirements", "bench_resource_requirements.py"),
    ("E6", "random polling vs flapping attacks", "bench_random_polling.py"),
    ("E7", "RVaaS vs provider-trusting baselines", "bench_baseline_comparison.py"),
    ("E8", "confidentiality / topology leakage", "bench_confidentiality.py"),
    ("E9", "multi-provider federation", "bench_multiprovider.py"),
    ("E10", "HSA scaling + ablations", "bench_hsa_scaling.py"),
    ("E11", "monitoring overhead & staleness", "bench_monitoring_overhead.py"),
    ("E12", "fairness / neutrality queries", "bench_fairness_queries.py"),
    ("E13", "attack traceback from history", "bench_traceback.py"),
    ("E14", "HSA vs emulation backends", "bench_verification_backends.py"),
    ("E15", "proactive alerts vs polling", "bench_proactive_alerts.py"),
    ("E16", "delta-driven vs full recompilation", "bench_incremental_engine.py"),
    ("E17", "fast-path HSA kernel vs reference", "bench_hsa_kernel.py"),
    ("E18", "resilience under lossy control channels", "bench_fault_resilience.py"),
    ("E19", "atomic-predicate backend vs wildcard", "bench_atom_engine.py"),
    ("E20", "matrix repair vs full atom recompile", "bench_matrix_repair.py"),
    ("E21", "multi-tenant serving tier throughput", "bench_serving_tier.py"),
    ("E22", "AS-scale federation + herd immunity", "bench_federation.py"),
    ("E23", "preventive verify-then-install gate", "bench_preventive_gate.py"),
]


def parse_topology(spec: str, clients) -> Topology:
    """Parse ``isp`` / ``linear:6`` / ``fat-tree:4`` / ... into a topology."""
    name, _, arg = spec.partition(":")
    if name == "isp":
        return isp_topology(clients=clients)
    if name == "abilene":
        return abilene_topology(clients=clients)
    if name == "single":
        return single_switch_topology(int(arg or 2), clients=clients)
    if name == "linear":
        return linear_topology(int(arg or 4), clients=clients)
    if name == "ring":
        return ring_topology(int(arg or 4), clients=clients)
    if name == "tree":
        return tree_topology(int(arg or 2), 2, clients=clients)
    if name == "fat-tree":
        return fat_tree_topology(int(arg or 4), clients=clients)
    if name == "waxman":
        return waxman_topology(int(arg or 12), seed=1, clients=clients)
    raise SystemExit(f"unknown topology spec: {spec!r}")


def arm_attack(bed: Testbed, name: str) -> str:
    from repro.attacks import (
        BlackholeAttack,
        DiversionAttack,
        ExfiltrationAttack,
        GeoViolationAttack,
        JoinAttack,
    )

    hosts = [h.name for h in bed.topology.hosts.values() if h.client]
    if len(hosts) < 3:
        raise SystemExit("topology too small to arm an attack")
    factories = {
        "join": lambda: JoinAttack(hosts[1], hosts[0]),
        "exfiltration": lambda: ExfiltrationAttack(hosts[0], hosts[1]),
        "blackhole": lambda: BlackholeAttack(hosts[2], hosts[0]),
        "diversion": lambda: DiversionAttack(
            hosts[0], hosts[2], sorted(bed.topology.switches)[-1]
        ),
        "geo": lambda: GeoViolationAttack(hosts[0], hosts[2], "offshore"),
    }
    try:
        attack = factories[name]()
    except KeyError:
        raise SystemExit(
            f"unknown attack {name!r}; choose from {sorted(factories)}"
        ) from None
    report = bed.provider.compromise(attack)
    bed.run(0.5)
    return report.details


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.attacks import JoinAttack

    print("deploying isolated two-tenant ISP network with RVaaS...")
    bed = build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=args.seed
    )
    answer = bed.ask("alice", IsolationQuery()).response.answer
    print(f"benign isolation check : isolated={answer.isolated}")
    report = bed.provider.compromise(JoinAttack("h_ber2", "h_fra1"))
    bed.run(0.5)
    print(f"control plane hacked   : {report.details}")
    answer = bed.ask("alice", IsolationQuery()).response.answer
    print(f"post-attack check      : isolated={answer.isolated}")
    for endpoint in answer.violating_endpoints:
        print(f"  covert access point  : {endpoint.labelled()}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    clients = args.clients.split(",")
    topology = parse_topology(args.topology, clients)
    bed = build_testbed(
        topology, isolate_clients=not args.flat_routing, seed=args.seed
    )
    if args.attack:
        print("adversary:", arm_attack(bed, args.attack))
    client = args.client or bed.client_names()[0]
    try:
        query = QUERIES[args.query]()
    except KeyError:
        raise SystemExit(
            f"unknown query {args.query!r}; choose from {sorted(QUERIES)}"
        ) from None
    handle = bed.ask(client, query)
    response = handle.response
    print(f"client          : {client}")
    print(f"query           : {type(query).__name__}")
    print(f"virtual latency : {handle.latency * 1000:.1f} ms")
    print(f"snapshot version: {response.snapshot_version}")
    print(f"answer          : {response.answer}")
    return 0


def cmd_topologies(_args: argparse.Namespace) -> int:
    specs = [
        ("single[:H]", single_switch_topology(2)),
        ("linear[:N]", linear_topology(4)),
        ("ring[:N]", ring_topology(4)),
        ("tree[:D]", tree_topology(2, 2)),
        ("fat-tree[:K]", fat_tree_topology(4)),
        ("waxman[:N]", waxman_topology(12, seed=1)),
        ("isp", isp_topology()),
        ("abilene", abilene_topology()),
    ]
    for spec, topo in specs:
        print(f"{spec:<14} {topo.describe()}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run the query battery and print the engine's serving counters."""
    from repro.core.engine import BACKEND_ENV_VAR
    from repro.hsa.atoms import GLOBAL_ATOM_TABLE
    from repro.openflow.actions import Output
    from repro.openflow.messages import Match

    from repro.serving import ServingConfig

    clients = args.clients.split(",")
    topology = parse_topology(args.topology, clients)
    gate_config = None
    if getattr(args, "gate", False):
        from repro.core.gate import GateConfig

        gate_config = GateConfig()
    # The deployment's engine reads its backend default from the
    # environment; scope the override to testbed construction.
    overrides = {BACKEND_ENV_VAR: args.backend}
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        bed = build_testbed(
            topology,
            isolate_clients=True,
            seed=args.seed,
            serving=ServingConfig(),
            gate=gate_config,
        )
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    client = bed.client_names()[0]

    def battery() -> None:
        for name in sorted(QUERIES):
            bed.service.answer_locally(client, QUERIES[name]())

    battery()
    # Optional FlowMod churn between batteries, to exercise the
    # delta-driven matrix-repair path (atom backend).
    switch = sorted(bed.topology.switches)[0]
    for i in range(args.churn):
        bed.provider.install_flow(
            switch,
            Match.build(tp_dst=31000 + i),
            (Output(1),),
            priority=400 + i,
        )
        bed.run(0.5)
        battery()

    metrics = bed.service.engine.metrics
    counters = metrics.snapshot_counters()
    print(f"backend            : {bed.service.engine.backend}")
    print(f"topology           : {args.topology} ({topology.describe()})")
    print(f"queries run        : {len(QUERIES) * (1 + args.churn)}")
    print(
        "switch tf          : "
        f"hits={counters['switch_tf_hits']} "
        f"misses={counters['switch_tf_misses']}"
    )
    print(
        "network tf         : "
        f"hits={counters['network_tf_hits']} "
        f"builds={counters['network_tf_builds']} "
        f"incremental={counters['incremental_builds']}"
    )
    print(
        "reachability       : "
        f"hits={counters['reach_hits']} misses={counters['reach_misses']}"
    )
    if bed.service.engine.backend == "atom":
        print(
            "atom universe      : "
            f"atoms={counters['atom_count']} "
            f"space_builds={counters['atom_space_builds']} "
            f"overflows={counters['atom_overflows']}"
        )
        print(
            "atom matrix        : "
            f"builds={counters['atom_matrix_builds']} "
            f"repairs={counters['matrix_repairs']} "
            f"repair_fallbacks={counters['matrix_repair_fallbacks']}"
        )
        print(
            "matrix repair rows : "
            f"reused={counters['rows_reused']} "
            f"repaired={counters['rows_repaired']} "
            f"atoms_split={counters['atoms_split']}"
        )
        table = GLOBAL_ATOM_TABLE.stats()
        print(
            "atom interner      : "
            f"hits={table['hits']} builds={table['builds']} "
            f"revivals={table['revivals']}"
        )
        print(
            "query serving      : "
            f"matrix={counters['atom_served_queries']} "
            f"fallback={counters['atom_fallbacks']}"
        )
        served = counters["atom_served_by_class"]
        fallbacks = counters["atom_fallbacks_by_class"]
        print("per query class    :")
        for name in sorted(set(served) | set(fallbacks)):
            print(
                f"  {name:<24} matrix={served.get(name, 0):<5} "
                f"fallback={fallbacks.get(name, 0)}"
            )

    # Push the battery through the serving tier twice so the scheduler
    # counters show admission, coalescing and the batch histogram.
    scheduler = bed.service.scheduler
    assert scheduler is not None
    for _ in range(2):
        for name in sorted(QUERIES):
            scheduler.submit(
                client, QUERIES[name](), on_done=lambda _p, _o: None
            )
    scheduler.flush()
    serving = scheduler.metrics.snapshot_counters()
    print(
        "scheduler          : "
        f"admitted={serving['admitted']} served={serving['served']} "
        f"coalesced={serving['coalesced']} shed={serving['shed']} "
        f"rate_limited={serving['rate_limited']}"
    )
    print(
        "batches            : "
        f"count={serving['batches']} max={serving['max_batch']} "
        f"queue_peak={serving['queue_peak']} "
        f"hist={serving['batch_size_hist']}"
    )
    print(
        "serving caches     : "
        f"answer_hits={serving['answer_cache_hits']} "
        f"engine_calls={serving['engine_calls']} "
        f"row_hits={bed.service.verifier.row_cache_hits} "
        f"row_misses={bed.service.verifier.row_cache_misses}"
    )
    print(
        "degraded serving   : "
        f"stale_served={serving['stale_served']} "
        f"overload_responses={serving['overload_responses']} "
        f"warm_compiles={serving['warm_compiles']}"
    )
    if bed.gate is not None:
        gate = bed.gate.stats()
        print(
            "gate               : "
            f"state={gate['state']} intercepted={gate['intercepted']} "
            f"allowed={gate['allowed']} noop={gate['noop_allowed']}"
        )
        print(
            "gate refusals      : "
            f"blocked={gate['blocked']} repaired={gate['repaired']} "
            f"quarantined={gate['quarantined']} "
            f"rollbacks={gate['rollbacks']}"
        )
        print(
            "gate robustness    : "
            f"shed={gate['shed']} deadline_misses={gate['deadline_misses']} "
            f"retries={gate['retries']} "
            f"passed_through={gate['passed_through']} "
            f"fail_closed_rejects={gate['fail_closed_rejects']}"
        )
        print(
            "gate ledger        : "
            f"decisions={gate['decisions']} "
            f"audit_records={gate['audit_records']} "
            f"shadow_entries={gate['shadow_entries']} "
            f"backlog={gate['backlog']}"
        )
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Closed-loop serving-tier quick-look: serial vs scheduler."""
    from repro.core.engine import BACKEND_ENV_VAR
    from repro.serving import (
        QueryScheduler,
        ServingConfig,
        VirtualClock,
        WorkloadSpec,
        drive_scheduler,
        drive_serial,
        generate_arrivals,
        percentile_table,
        scope_wildcard_seeds,
    )

    clients = args.clients.split(",")
    topology = parse_topology(args.topology, clients)
    spec = WorkloadSpec(
        requests=args.requests,
        population=args.population,
        duplicate_fraction=args.duplicates,
        scope_pool=args.scope_pool,
        seed=args.seed,
    )
    # Fresh testbed per mode: sharing one bed would hand the serving
    # run the serial run's warm engine caches (or vice versa) and skew
    # the comparison.  One untimed query per bed keeps first-compile
    # cost out of both measurement windows identically.
    def fresh_bed():
        saved = os.environ.get(BACKEND_ENV_VAR)
        os.environ[BACKEND_ENV_VAR] = args.backend
        try:
            bed = build_testbed(topology, isolate_clients=True, seed=args.seed)
        finally:
            if saved is None:
                os.environ.pop(BACKEND_ENV_VAR, None)
            else:
                os.environ[BACKEND_ENV_VAR] = saved
        bed.service.engine.seed_atoms(scope_wildcard_seeds(spec))
        bed.service.answer_locally(clients[0], QUERIES["isolation"]())
        return bed

    serial_bed = fresh_bed()
    arrivals = generate_arrivals(serial_bed.registrations, spec)
    print(
        f"workload: {spec.requests} requests, {spec.population} simulated "
        f"clients, {spec.duplicate_fraction:.0%} duplicates, "
        f"backend={serial_bed.service.engine.backend}"
    )

    serial = drive_serial(serial_bed.service.answer_locally, arrivals)

    service = fresh_bed().service
    service.verifier.enable_row_cache()
    clock = VirtualClock()
    scheduler = QueryScheduler(
        answer_fn=service._scheduler_answer,
        snapshot_fn=service.snapshot,
        freshness_fn=service._freshness,
        clock=clock,
        config=ServingConfig(),
        ready_fn=service.verifier.ready,
        warm_fn=service.verifier.warm,
    )
    serving = drive_scheduler(scheduler, clock, arrivals)

    header = ["mode", "served", "refused", "req/s", "p50ms", "p99ms", "p999ms"]
    rows = [header] + percentile_table([serial, serving])
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(row)))
    if serial.throughput > 0:
        print(f"speedup: {serving.throughput / serial.throughput:.2f}x")
    counters = scheduler.metrics.snapshot_counters()
    print(
        f"coalesced={counters['coalesced']} "
        f"answer_cache_hits={counters['answer_cache_hits']} "
        f"engine_calls={counters['engine_calls']} "
        f"batches={counters['batches']} max_batch={counters['max_batch']}"
    )
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    """AS-scale federation quick-look: query modes + herd audit."""
    import time

    from repro.core.herd import herd_immunity_report
    from repro.dataplane.asgraph import (
        as_graph_topology,
        build_snapshot,
        client_registration,
        federation_from_asgraph,
    )

    asg = as_graph_topology(
        args.domains, seed=args.seed, client_sites=args.client_sites
    )
    snapshot = build_snapshot(asg)
    federation = federation_from_asgraph(
        asg, snapshot=snapshot, backend=args.backend
    )
    registration = client_registration(asg)
    print(
        f"internetwork: {args.domains} ASes, "
        f"{len(asg.topology.switches)} switches, "
        f"{sum(len(r) for r in snapshot.rules.values())} rules, "
        f"{len(registration.hosts)} client sites, backend={args.backend}"
    )

    modes = args.modes.split(",")
    answer = None
    for mode in modes:
        start = time.perf_counter()
        answer = federation.federated_query(registration, mode=mode)
        elapsed = (time.perf_counter() - start) * 1000
        print(
            f"{mode:<9}: {elapsed:8.1f} ms  "
            f"endpoints={len(answer.endpoints)} "
            f"regions={len(answer.regions)} "
            f"domains={len(answer.domains_involved)} "
            f"messages={answer.federated_messages} "
            f"depth={answer.max_chain_depth} "
            f"truncated={answer.truncated} dropped={answer.dropped_items}"
        )

    rel = asg.relationships()
    cones = rel.cone_sizes()
    verified = {n for n, c in cones.items() if c >= args.cone_threshold}
    report = herd_immunity_report(rel, verified)
    print(
        f"\nherd immunity: {len(verified)} verified ASes "
        f"(cone >= {args.cone_threshold}), {len(report.verdicts)} pairs"
    )
    for verdict, count in report.summary_rows():
        print(f"  {verdict:<17} {count:>6}")
    print(
        f"protected fraction {report.protected_fraction:.3f}, "
        f"verified-cone coverage {report.verified_cone_coverage:.2f}"
    )
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    for exp_id, title, bench in EXPERIMENTS:
        print(f"{exp_id:<5} {title:<42} benchmarks/{bench}")
    print("\nrun all:   pytest benchmarks/ --benchmark-only -s")
    print("run one:   pytest benchmarks/<file> --benchmark-only -s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RVaaS reproduction — trustworthy routing verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="attack-and-detect walkthrough")
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=cmd_demo)

    query = sub.add_parser("query", help="run one query on a fresh deployment")
    query.add_argument("query", choices=sorted(QUERIES))
    query.add_argument("--client", default=None, help="querying client name")
    query.add_argument("--clients", default="alice,bob")
    query.add_argument("--topology", default="isp", help="e.g. isp, linear:6")
    query.add_argument("--attack", default=None, help="arm an attack first")
    query.add_argument(
        "--flat-routing",
        action="store_true",
        help="any-to-any routing instead of per-client isolation",
    )
    query.add_argument("--seed", type=int, default=0)
    query.set_defaults(func=cmd_query)

    topologies = sub.add_parser("topologies", help="list topology generators")
    topologies.set_defaults(func=cmd_topologies)

    experiments = sub.add_parser("experiments", help="list the experiment index")
    experiments.set_defaults(func=cmd_experiments)

    stats = sub.add_parser(
        "stats", help="run the query battery and print engine counters"
    )
    stats.add_argument(
        "--backend",
        choices=("wildcard", "atom"),
        default="atom",
        help="HSA header-set backend for the deployment's engine",
    )
    stats.add_argument("--clients", default="alice,bob")
    stats.add_argument("--topology", default="isp", help="e.g. isp, linear:6")
    stats.add_argument(
        "--churn",
        type=int,
        default=0,
        help="FlowMods to install between query batteries (exercises "
        "delta-driven matrix repair on the atom backend)",
    )
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--gate",
        action="store_true",
        help="install the preventive verify-then-install gate on every "
        "control channel and print its decision counters",
    )
    stats.set_defaults(func=cmd_stats)

    serve = sub.add_parser(
        "serve-bench",
        help="serial vs serving-tier throughput on a synthetic workload",
    )
    serve.add_argument(
        "--backend", choices=("wildcard", "atom"), default="atom"
    )
    serve.add_argument("--clients", default="alice,bob")
    serve.add_argument("--topology", default="fat-tree:4")
    serve.add_argument("--requests", type=int, default=1000)
    serve.add_argument(
        "--population", type=int, default=10_000, help="simulated client count"
    )
    serve.add_argument(
        "--duplicates",
        type=float,
        default=0.5,
        help="fraction of requests repeating an earlier (client, query) pair",
    )
    serve.add_argument("--scope-pool", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=cmd_serve_bench)

    federate = sub.add_parser(
        "federate",
        help="AS-scale federated query + herd-immunity audit",
    )
    federate.add_argument(
        "--backend", choices=("wildcard", "atom"), default="atom"
    )
    federate.add_argument("--domains", type=int, default=40)
    federate.add_argument("--client-sites", type=int, default=3)
    federate.add_argument(
        "--modes",
        default="matrix,serial",
        help="comma-separated federation modes to time "
        "(matrix, serial, recompile)",
    )
    federate.add_argument(
        "--cone-threshold",
        type=int,
        default=8,
        help="an AS runs RVaaS when its customer cone is at least this big",
    )
    federate.add_argument("--seed", type=int, default=11)
    federate.set_defaults(func=cmd_federate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
