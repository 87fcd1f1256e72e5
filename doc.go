// Package iqn is a from-scratch Go reproduction of "IQN Routing:
// Integrating Quality and Novelty in P2P Querying and Ranking" (Michel,
// Bender, Triantafillou, Weikum; EDBT 2006) — the MINERVA P2P web-search
// engine's overlap-aware query routing.
//
// The implementation lives under internal/:
//
//   - internal/synopsis — Bloom filters, min-wise permutations, hash
//     sketches, with resemblance/novelty estimators (paper Section 3)
//   - internal/chord — the Chord DHT the directory is layered on
//   - internal/transport — in-process and TCP RPC, plus deterministic
//     fault injection (transport.Faulty: seeded per-link drop / delay /
//     duplicate / error / one-way partition / crash-on-Nth-call rules
//     with a byte-for-byte replayable fault schedule) and retry with
//     capped exponential backoff, deterministic jitter, and per-call
//     timeouts (transport.RetryPolicy)
//   - internal/directory — the term-partitioned PeerList directory: one
//     batched read per owner group, failing over (or hedging) across the
//     owner's replicas, with anti-entropy repair between them
//   - internal/ir, internal/cori — local IR engine and CORI selection
//   - internal/core — the IQN routing algorithm itself (Sections 5–7),
//     with the Fast-IQN lazy-greedy selection engine: sound per-family
//     score ceilings prune candidate re-estimation while producing
//     plans byte-identical to a full rescan (the oracle its tests keep)
//   - internal/histogram — score-conscious synopses (Section 7.1)
//   - internal/topk — the threshold coordinator that stops forwarded
//     peers once they cannot reach the merged top-k
//   - internal/minerva — the peer engine tying everything together
//   - internal/dataset, internal/eval — workloads and the experiment
//     harness regenerating every figure of the paper
//   - internal/sim — scenario-driven chaos simulation: scripted fault
//     schedules (kill, partition, slow link, stale directory entries)
//     driven through a full in-process network, with invariants for
//     deadlock-freedom, loud degradation (lost peers are reported in
//     SearchResult.Errors, never silently dropped), and recall bounds
//     against a fault-free twin run
//
// Entry points: cmd/minerva (run a network), cmd/iqnbench (regenerate
// the paper's figures), cmd/synopsize (synopsis workbench), and the
// runnable scenarios under examples/. The benchmark harness in
// bench_test.go has one testing.B target per figure and per design
// choice; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package iqn
