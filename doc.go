// Package censuslink is a Go reproduction of "Temporal group linkage and
// evolution analysis for census data" (Christen, Groß, Wang, Christen,
// Fisher, Rahm — EDBT 2017).
//
// The library links person records (1:1) and households (N:M) between
// successive census datasets with the paper's iterative, graph-based
// subgraph matching algorithm, and derives household evolution patterns
// (preserve, add, remove, move, split, merge) on a multi-census evolution
// graph.
//
// Layout:
//
//   - internal/linkage     — the paper's contribution (Algorithms 1 and 2)
//   - internal/census      — data model and CSV I/O
//   - internal/hgraph      — household graphs and group enrichment
//   - internal/strsim      — string similarity functions
//   - internal/block       — blocking / indexing
//   - internal/cluster     — union-find clustering
//   - internal/evolution   — evolution patterns and the evolution graph
//   - internal/evaluate    — precision / recall / F-measure
//   - internal/synth       — synthetic Rawtenstall-profile census generator
//   - internal/baseline    — CL, GraphSim and temporal-decay comparators
//   - internal/experiments — regenerates every table/figure of the paper
//   - internal/chart       — SVG bar charts (Figure 6 as an image)
//   - cmd/*                — censusgen, linker, evolve, benchall, tune, explain
//   - examples/*           — runnable example applications
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package censuslink
