package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"jvmpower/internal/benchstat"
)

// comparisonSpec names a (variant, baseline) pair to significance-test
// when both benchmarks appear in the run.
type comparisonSpec struct {
	name              string
	variant, baseline string
}

// legacySpec is a frozen scalar from an earlier BENCH_*.json, recorded on
// whatever machine ran that PR's benchmarks. It is attached as labeled
// context against a named current benchmark, never significance-tested:
// there is no sample set behind it.
type legacySpec struct {
	name    string
	nsPerOp float64
	source  string
	against string // current benchmark to compute RatioVsNow from
	note    string
}

// modeSpec is everything bench.sh's awk core used to hard-code per mode.
type modeSpec struct {
	description string
	comparisons []comparisonSpec
	legacy      []legacySpec
}

const crossMachineNote = "frozen on the machine that ran that PR's benchmarks — an environment-tagged legacy number, not a controlled comparison against this run"

var modes = map[string]modeSpec{
	"figures": {
		description: "Figure-benchmark evidence: per-repetition ns/op with median, min/max spread, and sample stddev. The seed-state numbers ride along as environment-tagged legacy baselines (cross-machine, no sample set): context, not claims.",
		legacy: []legacySpec{
			{"seed_BenchmarkCharacterizeJavac", 161529744, "pre-batching seed state (BENCH_1.json baseline_seed median)", "BenchmarkCharacterizeJavac", crossMachineNote},
			{"seed_BenchmarkFig6EnergyDecomposition", 1625820009, "pre-batching seed state (BENCH_1.json baseline_seed median)", "BenchmarkFig6EnergyDecomposition", crossMachineNote},
			{"seed_BenchmarkFig7EDP", 8713729854, "pre-batching seed state (BENCH_1.json baseline_seed median)", "BenchmarkFig7EDP", crossMachineNote},
			{"seed_BenchmarkFig8Power", 6671900379, "pre-batching seed state (BENCH_1.json baseline_seed median)", "BenchmarkFig8Power", crossMachineNote},
		},
	},
	"overhead": {
		description: "Observability-layer overhead on the Fig. 7 hot path: bare vs metrics registry + JSONL journal enabled. The instrumented_vs_bare comparison is Mann–Whitney-tested with a bootstrap CI on the effect; the overhead number is only a claim when significant. The budget is <1%.",
		comparisons: []comparisonSpec{{"instrumented_vs_bare", "BenchmarkFig7EDPInstrumented", "BenchmarkFig7EDP"}},
	},
	"faults": {
		description: "Fault-injection disabled-path overhead on the Fig. 7 hot path: bare vs a zero-rate fault plan attached (no injectors installed, only the nil checks threaded through the DAQ, sense channels, HPM sampler, and retry loop). The comparison is significance-tested; the budget is <1%.",
		comparisons: []comparisonSpec{{"faults_zero_vs_bare", "BenchmarkFig7EDPFaultsZero", "BenchmarkFig7EDP"}},
	},
	"isolate": {
		description: "Process-isolation disabled-path overhead on the Fig. 7 hot path: bare vs the isolation machinery reachable but no supervisor attached. The comparison is significance-tested (budget <1%); the frozen PR 3 number rides along as an environment-tagged legacy baseline.",
		comparisons: []comparisonSpec{{"isolate_off_vs_bare", "BenchmarkFig7EDPIsolateOff", "BenchmarkFig7EDP"}},
		legacy: []legacySpec{
			{"pr3_BenchmarkFig7EDP_fastest_rep", 3821362947, "BENCH_3.json fastest BenchmarkFig7EDP repetition", "BenchmarkFig7EDPIsolateOff", crossMachineNote},
		},
	},
	"memo": {
		description: "Sweep-fork memoization on the Fig. 7 hot path: bare vs the segment-trace memo store enabled (the benchmark fails unless the store hits). The memo_vs_bare comparison is significance-tested; the frozen BENCH_4 median rides along as an environment-tagged legacy baseline whose ratio_vs_now is the historical speedup claim (acceptance floor 2x on the machine that recorded it). Figures are byte-identical with the store on or off — the determinism suite enforces it.",
		comparisons: []comparisonSpec{{"memo_vs_bare", "BenchmarkFig7EDPMemo", "BenchmarkFig7EDP"}},
		legacy: []legacySpec{
			{"pr4_BenchmarkFig7EDP_median", 4020391040, "BENCH_4.json median BenchmarkFig7EDP repetition", "BenchmarkFig7EDPMemo", crossMachineNote},
			{"pr4_BenchmarkFig7EDP_median_vs_bare", 4020391040, "BENCH_4.json median BenchmarkFig7EDP repetition", "BenchmarkFig7EDP", crossMachineNote},
		},
	},
	"fleet": {
		description: "Distributed-execution coordination overhead on the Fig. 7 hot path: bare (in-process) vs every point dispatched to two loopback executor nodes over the socket transport (framing, point-codec encode/decode, scheduling, loopback TCP; the benchmark fails unless points actually flowed through the fleet). The fleet_vs_bare comparison is Mann–Whitney-tested with a bootstrap CI on the effect. Figures are byte-identical either way — the cross-node determinism gate enforces it — so this number is pure transport cost, amortized across real campaigns by node parallelism that a single-machine loopback run deliberately does not exploit.",
		comparisons: []comparisonSpec{{"fleet_vs_bare", "BenchmarkFig7EDPFleet", "BenchmarkFig7EDP"}},
	},
	"sync": {
		description: "Journal durability pricing on the Fig. 7 hot path: a real file-backed journal under the default per-record group commit (-journal-sync point) vs the legacy buffer-until-Close policy. The sync_point_vs_close comparison is Mann–Whitney-tested with a bootstrap CI on the effect; the fsync cost is only a claim when significant. This is the measured basis for shipping per-point sync as the default.",
		comparisons: []comparisonSpec{{"sync_point_vs_close", "BenchmarkFig7EDPJournalSyncPoint", "BenchmarkFig7EDPJournalSyncClose"}},
	},
	"steady": {
		description: "Steady-state benchmark evidence for the Fig. 7 hot path: each benchmark ran as one in-process series with per-iteration timings (-iters), segmented into warmup and steady state by changepoint detection; median/min/max/stddev and the bootstrap percentile CI summarize the steady segment only. The memo_vs_bare comparison is Mann–Whitney-tested on the steady samples with a bootstrap CI on the effect. A speedup or overhead number from this file is a claim only when its comparison is significant and the environments match.",
		comparisons: []comparisonSpec{{"memo_vs_bare", "BenchmarkFig7EDPMemo", "BenchmarkFig7EDP"}},
	},
	"gate": {
		description: "CI regression-gate evidence: one in-process series of the Fig. 7 benchmark with per-iteration timings, warmup-segmented, with a bootstrap CI on the steady-state median. Produced twice per gate run (same SHA must diff clean; a slowed build must not).",
	},
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	mode := fs.String("mode", "", "report mode: figures|overhead|faults|isolate|memo|fleet|sync|steady|gate")
	count := fs.Int("count", 0, "required repetitions per benchmark (0 = don't enforce)")
	itersPath := fs.String("iters", "", "per-iteration JSONL file emitted by the harness -iters flag")
	out := fs.String("out", "", "output file (default stdout)")
	command := fs.String("command", "", "the benchmark command line, recorded as provenance")
	alpha := fs.Float64("alpha", 0.05, "significance level for comparisons")
	seed := fs.Int64("seed", 1, "bootstrap resampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := modes[*mode]
	if !ok {
		return fmt.Errorf("unknown mode %q (figures|overhead|faults|isolate|memo|fleet|sync|steady|gate)", *mode)
	}

	parsed, err := benchstat.Parse(os.Stdin)
	if err != nil {
		return err
	}
	if *count > 0 {
		if err := parsed.ValidateReps(*count); err != nil {
			return err
		}
	}
	var iters map[string][]float64
	if *itersPath != "" {
		f, err := os.Open(*itersPath)
		if err != nil {
			return err
		}
		iters, err = benchstat.ParseIters(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(iters) == 0 {
			return fmt.Errorf("iters file %s holds no records", *itersPath)
		}
	}
	benches, err := benchstat.Build(parsed, iters, *seed)
	if err != nil {
		return err
	}
	report := &benchstat.Report{
		Description: spec.description,
		Command:     *command,
		Environment: benchstat.CaptureEnvironment(parsed, gitSHA()),
		Benchmarks:  benches,
	}
	for _, c := range spec.comparisons {
		v, okV := benches[c.variant]
		b, okB := benches[c.baseline]
		if !okV || !okB {
			continue
		}
		report.Comparisons = append(report.Comparisons, benchstat.Compare(c.name, v, b, *alpha, *seed))
	}
	for _, l := range spec.legacy {
		lb := benchstat.LegacyBaseline{
			Name:         l.name,
			NsPerOp:      l.nsPerOp,
			Source:       l.source,
			CrossMachine: true,
			Note:         l.note,
		}
		if cur, ok := benches[l.against]; ok && cur.MedianNs > 0 {
			lb.RatioVsNow = l.nsPerOp / cur.MedianNs
		}
		report.Legacy = append(report.Legacy, lb)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := report.WriteJSON(w); err != nil {
		return err
	}
	printSummary(os.Stderr, report)
	return nil
}

// printSummary gives the human running bench.sh the verdicts without
// opening the JSON.
func printSummary(w io.Writer, r *benchstat.Report) {
	for _, name := range sortedNames(r.Benchmarks) {
		b := r.Benchmarks[name]
		line := fmt.Sprintf("%s: median %.0f ns/op (n=%d", name, b.MedianNs, len(b.Samples()))
		if b.SteadyCI != nil {
			line += fmt.Sprintf(", warmup %d, 95%% CI [%.0f, %.0f]", b.Warmup, b.SteadyCI.Lo, b.SteadyCI.Hi)
		}
		fmt.Fprintln(w, line+")")
	}
	for _, c := range r.Comparisons {
		verdict := "not significant — not a claim"
		if c.Significant {
			verdict = fmt.Sprintf("significant (p=%.4f)", c.P)
		}
		fmt.Fprintf(w, "%s: %+.2f%% [%+.2f%%, %+.2f%%] %s\n", c.Name, c.EffectPct, c.EffectCI.Lo, c.EffectCI.Hi, verdict)
	}
	for _, l := range r.Legacy {
		if l.RatioVsNow != 0 {
			fmt.Fprintf(w, "%s: %.2fx vs now (cross-machine legacy, not a claim)\n", l.Name, l.RatioVsNow)
		}
	}
}

func sortedNames(m map[string]*benchstat.Benchmark) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ { // insertion sort; handful of names
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// gitSHA best-effort resolves the current commit for provenance; empty on
// failure (not all runs happen in a checkout).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(dirty))) > 0 {
		sha += "-dirty"
	}
	return sha
}
