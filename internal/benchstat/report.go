package benchstat

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"jvmpower/internal/stats"
)

// Environment is the machine/build identity stamped into every report.
// Two reports are only comparable as a claim when these match; benchgate
// diff refuses to gate across differing environments and labels the
// comparison instead.
type Environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"` // model string, if discoverable
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha,omitempty"`
}

// Same reports whether two environments are comparable for gating:
// identical platform, CPU model, and parallelism. Git SHA is excluded —
// differing SHAs are exactly what a regression gate compares.
func (e Environment) Same(o Environment) bool {
	return e.GOOS == o.GOOS && e.GOARCH == o.GOARCH && e.CPU == o.CPU &&
		e.GOMAXPROCS == o.GOMAXPROCS && e.NumCPU == o.NumCPU
}

// CaptureEnvironment fills an Environment from the running process,
// preferring identity parsed from the benchmark output itself (goos/
// goarch/cpu headers, -N name suffix) since the benchmarks may have run
// in a different process. gitSHA may be empty.
func CaptureEnvironment(p *Parsed, gitSHA string) Environment {
	env := Environment{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA,
	}
	if p != nil {
		if p.GOOS != "" {
			env.GOOS = p.GOOS
		}
		if p.GOARCH != "" {
			env.GOARCH = p.GOARCH
		}
		if p.CPU != "" {
			env.CPU = p.CPU
		}
		if p.Procs != 0 {
			env.GOMAXPROCS = p.Procs
		}
	}
	if env.CPU == "" {
		env.CPU = cpuModelFromProc()
	}
	return env
}

// cpuModelFromProc reads the CPU model from /proc/cpuinfo on Linux; empty
// elsewhere or on failure (the field is omitempty, not load-bearing).
func cpuModelFromProc() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, val, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// Benchmark is the per-benchmark evidence in a report: the raw samples,
// robust summaries, and — when a per-iteration series was captured — the
// warmup split and a bootstrap CI on the steady-state median.
type Benchmark struct {
	Name        string    `json:"-"`
	NsPerOp     []float64 `json:"ns_per_op"` // per-repetition, from go test
	MedianNs    float64   `json:"median_ns_per_op"`
	MinNs       float64   `json:"min_ns_per_op"`
	MaxNs       float64   `json:"max_ns_per_op"`
	StdDevNs    float64   `json:"stddev_ns_per_op"` // sample stddev (÷n−1) of the summarized samples
	BytesPerOp  int64     `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64     `json:"allocs_per_op,omitempty"`

	// Per-iteration evidence, present only when the harness ran with
	// -iters. Steady is Iters[Warmup:]; MedianNs/MinNs/MaxNs/StdDevNs and
	// SteadyCI then summarize the steady segment, which supersedes the
	// coarse per-repetition ns/op above.
	Iters    []float64 `json:"iters_ns,omitempty"`
	Warmup   int       `json:"warmup_iters,omitempty"`
	Steady   []float64 `json:"steady_ns,omitempty"`
	SteadyCI *CI       `json:"steady_median_ci,omitempty"`
}

// Samples returns the best available sample set for inference: the
// steady-state iteration series when present, else the per-repetition
// ns/op values.
func (b *Benchmark) Samples() []float64 {
	if len(b.Steady) > 0 {
		return b.Steady
	}
	return b.NsPerOp
}

// Comparison is a significance-tested two-sample comparison between a
// variant and a baseline benchmark from the same run. It replaces the old
// binary below_noise flag: EffectPct is only a claim when Significant.
type Comparison struct {
	Name        string  `json:"name"`       // e.g. "fleet_vs_bare"
	Variant     string  `json:"variant"`    // benchmark name
	Baseline    string  `json:"baseline"`   // benchmark name
	EffectPct   float64 `json:"effect_pct"` // (median(variant)/median(baseline) − 1)·100
	EffectCI    CI      `json:"effect_ci"`  // bootstrap CI on EffectPct
	P           float64 `json:"p_value"`    // Mann–Whitney U, two-sided
	Alpha       float64 `json:"alpha"`
	Significant bool    `json:"significant"` // p < alpha and the effect CI excludes 0
	Note        string  `json:"note,omitempty"`
}

// Compare builds a significance-tested comparison of variant against
// baseline. alpha <= 0 defaults to 0.05. Significance requires agreement
// between the rank test and the bootstrap interval: p below alpha AND an
// effect CI that excludes zero. Either alone can misfire at small n.
func Compare(name string, variant, baseline *Benchmark, alpha float64, seed int64) Comparison {
	if alpha <= 0 {
		alpha = 0.05
	}
	a, b := variant.Samples(), baseline.Samples()
	effect := 0.0
	if mb := stats.Median(b); mb != 0 {
		effect = (stats.Median(a)/mb - 1) * 100
	}
	ci := BootstrapEffectCI(a, b, 0.95, DefaultResamples, seed)
	p := MannWhitneyP(a, b)
	c := Comparison{
		Name:        name,
		Variant:     variant.Name,
		Baseline:    baseline.Name,
		EffectPct:   effect,
		EffectCI:    ci,
		P:           p,
		Alpha:       alpha,
		Significant: p < alpha && (ci.Lo > 0 || ci.Hi < 0),
	}
	if len(a) < 3 || len(b) < 3 {
		c.Significant = false
		c.Note = "insufficient samples for significance (need >= 3 per side)"
	}
	return c
}

// LegacyBaseline is a frozen scalar from an earlier evidence file,
// possibly recorded on a different machine. It is carried as labeled
// context, never as a claim: there is no sample set to test against.
type LegacyBaseline struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	Source       string  `json:"source"` // e.g. "BENCH_4.json median"
	CrossMachine bool    `json:"cross_machine"`
	RatioVsNow   float64 `json:"ratio_vs_now,omitempty"` // baseline / current median
	Note         string  `json:"note"`
}

// Report is the BENCH_*.json evidence schema.
type Report struct {
	Description string                `json:"description"`
	Command     string                `json:"command"`
	Environment Environment           `json:"environment"`
	Benchmarks  map[string]*Benchmark `json:"benchmarks"`
	Comparisons []Comparison          `json:"comparisons,omitempty"`
	Legacy      []LegacyBaseline      `json:"legacy_baselines,omitempty"`
}

// Build summarizes a parsed run (plus optional per-iteration series) into
// report benchmarks. Iteration series, when present, are segmented into
// warmup and steady state, and the steady segment gets a bootstrap CI on
// its median.
func Build(p *Parsed, iters map[string][]float64, seed int64) (map[string]*Benchmark, error) {
	out := make(map[string]*Benchmark, len(p.Order))
	for _, name := range p.Order {
		s := p.Benchmarks[name]
		b := &Benchmark{Name: name, NsPerOp: s.NsPerOp}
		if n := len(s.BytesPerOp); n > 0 {
			b.BytesPerOp = s.BytesPerOp[n-1]
		}
		if n := len(s.AllocsPerOp); n > 0 {
			b.AllocsPerOp = s.AllocsPerOp[n-1]
		}
		summary := s.NsPerOp
		if series, ok := iters[name]; ok {
			if len(series) == 0 {
				return nil, fmt.Errorf("benchstat: empty iteration series for %s", name)
			}
			b.Iters = series
			b.Warmup = WarmupSplit(series)
			b.Steady = series[b.Warmup:]
			ci := BootstrapMedianCI(b.Steady, 0.95, DefaultResamples, seed)
			b.SteadyCI = &ci
			summary = b.Steady
		}
		b.MedianNs = stats.Median(summary)
		var run stats.Running
		for _, x := range summary {
			run.Add(x)
		}
		b.MinNs, b.MaxNs = run.Min(), run.Max()
		b.StdDevNs = run.SampleStdDev()
		out[name] = b
	}
	for name := range iters {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("benchstat: iteration series for %s has no matching benchmark result", name)
		}
	}
	return out, nil
}

// WriteJSON writes the report with stable indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a report written by WriteJSON and restores the
// benchmark Name fields from the map keys.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchstat: %s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchstat: %s: no benchmarks (not a benchgate report?)", path)
	}
	for name, b := range r.Benchmarks {
		b.Name = name
	}
	return &r, nil
}
