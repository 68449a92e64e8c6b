"""The offline verbs: ``repro generate`` (datasets), ``search`` (the
static database) and ``experiment`` (the paper-figure drivers)."""

from __future__ import annotations

import argparse
import inspect
import random
import sys
from pathlib import Path

from .graph.io import read_graph_set, write_graph_set, write_stream


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic dataset to a file."""
    from .datasets.ggen import generate_graph_set
    from .datasets.molecules import generate_molecule_set
    from .datasets.queries import make_query_set
    from .datasets.reality import RealityConfig, generate_reality_stream
    from .datasets.stream_gen import DENSE, SPARSE, synthesize_stream

    out = Path(args.out)
    if args.kind == "molecules":
        graphs = generate_molecule_set(args.count, seed=args.seed)
        write_graph_set(graphs, out)
    elif args.kind == "ggen":
        graphs = generate_graph_set(
            args.count,
            graph_size=args.size,
            num_vertex_labels=args.labels,
            seed=args.seed,
        )
        write_graph_set(graphs, out)
    elif args.kind == "queries":
        if not args.from_db:
            print("generate queries requires --from-db", file=sys.stderr)
            return 2
        source = [graph for _, graph in read_graph_set(args.from_db)]
        queries = make_query_set(source, args.query_edges, args.count, seed=args.seed)
        write_graph_set(queries, out, names=[f"q{i}" for i in range(len(queries))])
    elif args.kind == "reality-stream":
        stream = generate_reality_stream(
            random.Random(args.seed),
            args.timestamps,
            RealityConfig(num_devices=args.devices),
            name=out.stem,
        )
        write_stream(stream, out)
    elif args.kind == "synthetic-stream":
        if args.base:
            base = read_graph_set(args.base)[0][1]
        else:
            base = generate_graph_set(
                1, graph_size=args.size, num_vertex_labels=args.labels, seed=args.seed
            )[0]
        p_appear, p_disappear = DENSE if args.density == "dense" else SPARSE
        stream = synthesize_stream(
            base,
            p_appear,
            p_disappear,
            args.timestamps,
            random.Random(args.seed + 1),
            all_pairs=True,
            name=out.stem,
        )
        write_stream(stream, out)
    print(f"wrote {out}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """``repro search``: static filter-and-verify search over a graph set."""
    from .core.database import GraphDatabase

    database = GraphDatabase(dict(read_graph_set(args.db)), depth_limit=args.depth)
    for name, query in read_graph_set(args.queries):
        if args.no_verify:
            hits = database.candidates_for(query)
            label = "candidates"
        else:
            hits = database.search(query, verify=True)
            label = "matches"
        print(f"{name}: {len(hits)} {label}: {' '.join(sorted(map(str, hits)))}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: run paper-figure drivers, print their tables."""
    from .experiments import ALL_FIGURES, get_scale

    scale = get_scale(args.scale) if args.scale else get_scale()
    names = sorted(ALL_FIGURES) if args.figure == "all" else [args.figure]
    out = Path(args.out) if args.out else None
    out_is_dir = out is not None and (len(names) > 1 or out.suffix == "")
    if out_is_dir:
        out.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name not in ALL_FIGURES:
            print(
                f"unknown figure {name!r}; choose from {sorted(ALL_FIGURES)} or 'all'",
                file=sys.stderr,
            )
            return 2
        runner = ALL_FIGURES[name].run
        kwargs = {}
        if args.workers and "workers" in inspect.signature(runner).parameters:
            kwargs["workers"] = args.workers
        result = runner(scale, **kwargs)
        print(result.render())
        print()
        if out is not None:
            target = out / f"{name}.{args.format}" if out_is_dir else out
            result.save(target)
            print(f"saved {target}")
    return 0

