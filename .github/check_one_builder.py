#!/usr/bin/env python3
"""Check that every backbone comes from the one builder, and that each
mechanism it relies on has one copy.

Ten rules over non-test code, cut as `count_lines.py` cuts it (each file
up to its first unindented `#[cfg(test)]` line), in the files it counts
(`.rs` under `crates/*/src` and `crates/*/benches`, shims skipped) plus
`examples/`, `perfbench/src` and the root `src/`:

1. Only `crates/core/src/network.rs` constructs backbone routers: no other
   file calls `PeRouter::new` or `CoreRouter::new`.
2. No file names `LdpDomain`: the synchronous LDP run is test code
   (`crates/mpls/tests/common/ldp_reference.rs`), the reference for the
   routers' own label distribution, which is the model's one LDP.
3. Neither baseline, `crates/core/src/ipsec_vpn.rs` nor
   `crates/core/src/overlay.rs`, names an `Igp`: the IPsec baseline's
   routers and the overlay's switches forward on their own SPF views.
4. Only `ProviderNetwork` admits trunks: no file under `crates/bench/src`,
   `examples/`, `perfbench/src` or the root `src/` calls `cspf_path` or
   copies a network's topology (`.topo.clone()`) to place paths beside
   the network's own record.
5. Only `crates/net/src/dscp.rs` folds a DSCP into an EXP class: no other
   file shifts a DSCP right by three bits (`>> 3` on a line that names
   `dscp`); `Dscp::default_exp` is the one fold.
6. Only `crates/routing/src/igp.rs` runs a shortest-path search: no other
   file under `crates/*/src` names `BinaryHeap`, save the simulator's
   calendar (`crates/sim/src/calendar.rs`); CSPF is `cspf_path`, SPF over
   the links a constraint admits.
7. Only `crates/mpls/src/lfib.rs` interprets a label operation: no other
   file matches on `LabelOp` (a `LabelOp::…` pattern followed by `=>` on
   one line). Packets, the label walk and the verifier all read a label
   operation through `LabelOp::apply`.
8. Only `crates/ipsec/src/esp.rs` opens an ESP packet: no other file names
   `unseal`, the one way to the inner packet of a `Sealed` record, save
   `crates/net/src/packet.rs`, which defines it. It takes the SA's SPI,
   sequence number and keys, so the paper's §3 blindness (nothing between
   the gateways can classify on the inner headers) is structural.
9. Only `ProviderNetwork` writes VPN routes: under `crates/`, no file but
   `crates/core/src/network.rs` calls `BgpVpnFabric::new` or a fabric
   mutator (`add_vrf`, `advertise`, `withdraw`, `add_import_target`,
   `remove_import_target` or `add_export_target` on a `fabric`), so every
   VPN routing change reaches the routers as the MP-BGP packets they
   count. `crates/routing`, which defines the fabric, and
   `crates/bench/benches/control_plane_scale.rs`, which prices the fabric
   on its own, are exempt.
10. Only `crates/core/src/network.rs` creates a simulator: no other file
   under `crates/core/src` or `crates/bench/src` calls `Network::new` or
   `set_recorder`, so every network an experiment runs, the overlay and
   IPsec baselines included, comes from `BackboneBuilder`. The benches
   under `crates/*/benches` and `perfbench/src`, which price the bare
   engine, are exempt.

Usage: python3 .github/check_one_builder.py
Prints each offending line and exits 1 if any rule is broken.
"""
import os
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from count_lines import non_test, sources  # noqa: E402

EXTRA = ["examples", "perfbench/src", "src"]
RULES = [
    (re.compile(r"\b(PeRouter|CoreRouter)::new\b"),
     lambda path: path == "crates/core/src/network.rs",
     "constructs a backbone router outside BackboneBuilder"),
    (re.compile(r"\bLdpDomain\b"),
     lambda path: False,
     "names LdpDomain, the test-only LDP reference run"),
    (re.compile(r"\bIgp\b"),
     lambda path: path not in ("crates/core/src/ipsec_vpn.rs", "crates/core/src/overlay.rs"),
     "gives a baseline network a global IGP"),
    (re.compile(r"\bcspf_path\b|\.topo\.clone\(\)"),
     lambda path: not path.startswith(("crates/bench/src/", "examples/", "perfbench/src/", "src/")),
     "admits a trunk outside ProviderNetwork"),
    (re.compile(r"(?i)dscp.*>>\s*3\b"),
     lambda path: path == "crates/net/src/dscp.rs",
     "folds a DSCP outside Dscp::default_exp"),
    (re.compile(r"\bBinaryHeap\b"),
     lambda path: not re.match(r"crates/[^/]+/src/", path)
     or path in ("crates/routing/src/igp.rs", "crates/sim/src/calendar.rs"),
     "runs a shortest-path search outside the IGP's SPF"),
    (re.compile(r"\bLabelOp::\w+.*=>"),
     lambda path: path == "crates/mpls/src/lfib.rs",
     "interprets a LabelOp outside LabelOp::apply"),
    (re.compile(r"\bunseal\b"),
     lambda path: path in ("crates/ipsec/src/esp.rs", "crates/net/src/packet.rs"),
     "opens a sealed ESP packet outside decapsulate"),
    (re.compile(r"\bBgpVpnFabric::new\b|\bfabric\s*\.\s*(add_vrf|advertise|withdraw"
                r"|add_import_target|remove_import_target|add_export_target)\s*\("),
     lambda path: not path.startswith("crates/")
     or path.startswith("crates/routing/")
     or path in ("crates/core/src/network.rs", "crates/bench/benches/control_plane_scale.rs"),
     "writes VPN routes outside ProviderNetwork"),
    (re.compile(r"\bNetwork::new\b|\bset_recorder\b"),
     lambda path: not path.startswith(("crates/core/src/", "crates/bench/src/"))
     or path == "crates/core/src/network.rs",
     "creates a simulator outside BackboneBuilder"),
]


def main():
    os.chdir(pathlib.Path(__file__).resolve().parents[1])
    files = [(path, text) for path, _, text in sources()]
    extra = sorted(p.as_posix() for d in EXTRA for p in pathlib.Path(d).rglob("*.rs"))
    files += [(path, pathlib.Path(path).read_text()) for path in extra]
    bad = 0
    for path, text in files:
        for n, line in enumerate(non_test(text), 1):
            for pattern, allowed, why in RULES:
                if pattern.search(line) and not allowed(path):
                    print(f"{path}:{n}: {why}: {line.strip()}")
                    bad += 1
    print(f"{bad} violation(s) of the one-builder rules")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
