// Command perfbench is the repository benchmark: three workloads that
// exercise different layers of jvmpower, end-to-end metrics measured with
// tracing off, and a separate traced run that splits the time by layer.
//
// It drives the program only through public entry points —
// experiments.Runner, experiments.Daemon over HTTP, supervisor, fleet.Serve,
// core.NewMeter, vm.New/RunProfile and analysis.Build — and measures each
// layer from outside, by timing the calls into it. README.md lists the
// workloads, every metric, and which end-to-end metric each layer metric
// should move.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; progress and a readable
// summary go to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"jvmpower/internal/benchstat"
	"jvmpower/internal/stats"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // holds the experiments and validate binaries
	state    string // digest store, traces and per-run scratch directories
	nproc    int
}

// setupRepeats is how many extra times a run sets its workload up, each in
// a fresh child process, so setup_s is a median rather than one sample.
const setupRepeats = 8

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"paper-sweep", "isolate-sweep", "campaign-service"}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds int
	var trace int
	var setupOnly bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 20, "measured duration of an untraced run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the experiments and validate binaries")
	flag.StringVar(&cfg.state, "state", "", "directory for the benchmark's own state")
	flag.BoolVar(&setupOnly, "setup-only", false, "set the workload up, tear it down, print the set-up seconds")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := cfg.validate(seconds, trace); err != nil {
		return fail(err)
	}
	// One scheduler thread per CPU this process may use: every earlier
	// BENCH file recorded GOMAXPROCS 1, which is not how the job runs.
	runtime.GOMAXPROCS(cfg.nproc)

	if setupOnly {
		d, err := setupOnce(cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Println(d.Seconds())
		return 0
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	env := benchstat.CaptureEnvironment(nil, "")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%t nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		cfg.workload, cfg.seed, cfg.trace, cfg.nproc, env.GOMAXPROCS, env.CPU, env.GoVersion)

	store, err := openStore(cfg.state)
	if err != nil {
		return fail(err)
	}
	out := &outcome{values: map[string]float64{}}
	if cfg.trace {
		err = runTraced(cfg, store, out)
	} else {
		err = runMeasured(cfg, store, out)
	}
	if err != nil {
		return fail(err)
	}
	if err := store.save(); err != nil {
		return fail(err)
	}
	names := spec.EndToEnd
	if cfg.trace {
		names = spec.PerLayer
	}
	line, err := out.result(names, !cfg.trace)
	if err != nil {
		return fail(err)
	}
	out.summarize(names)
	fmt.Println(string(line))
	return 0
}

func (c *config) validate(seconds, trace int) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == c.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames, ", "))
	case seconds < 1:
		return fmt.Errorf("-seconds %d: must be at least 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d: must be 0 or 1", trace)
	case c.bin == "" || c.state == "":
		return errors.New("-bin and -state are required (perfbench/run.sh sets them)")
	}
	return nil
}

// runMeasured is an untraced run: set-up samples from child processes,
// the workload's closed loop, then the correctness and accuracy checks,
// which stay outside every timed region.
func runMeasured(cfg config, store *digestStore, out *outcome) error {
	setups, err := childSetups(cfg)
	if err != nil {
		return err
	}
	var own time.Duration
	switch cfg.workload {
	case "campaign-service":
		own, err = measureCampaigns(cfg, store, out)
	default:
		own, err = measureSweeps(cfg, store, out)
	}
	if err != nil {
		return err
	}
	setups = append(setups, own.Seconds())
	out.set("setup_s", stats.Median(setups))
	return runValidate(cfg, out)
}

// runTraced is a traced run: a fixed, seed-determined amount of work done
// once untraced and once traced, so the simulated counts repeat exactly
// from run to run and the tracing overhead is the ratio of the two walls.
func runTraced(cfg config, store *digestStore, out *outcome) error {
	tr := newTracer()
	var err error
	switch cfg.workload {
	case "campaign-service":
		err = traceCampaigns(cfg, store, out, tr)
	default:
		err = traceSweeps(cfg, store, out, tr)
	}
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.state, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	return nil
}

// setupOnce times one set-up and tear-down of the workload's program.
func setupOnce(cfg config) (time.Duration, error) {
	switch cfg.workload {
	case "campaign-service":
		dir, err := os.MkdirTemp(runDir(cfg), "setup-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		s, err := startService(cfg, dir, journalSync, nil)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, s.close()
	default:
		t0 := time.Now()
		w, err := setupSweeps(cfg)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		w.close()
		return d, nil
	}
}

// childSetups runs setupRepeats set-ups, each in a fresh process of this
// binary, so program generation and worker spawns are paid every time.
func childSetups(cfg config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", cfg.workload,
			"-bin", cfg.bin, "-state", cfg.state)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runDir returns (creating it) the directory for one run's scratch state.
func runDir(cfg config) string {
	d := filepath.Join(cfg.state, "run")
	_ = os.MkdirAll(d, 0o755) // MkdirTemp below reports any failure
	return d
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print, in each mode.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the metric list: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// outcome accumulates one run's operations, failures and metric values.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
}

// op counts one operation; a non-empty problem marks it failed.
func (o *outcome) op(problem string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if problem != "" {
		o.failed++
		if len(o.problems) < 10 {
			o.problems = append(o.problems, problem)
		}
	}
}

// mismatch records an output that disagreed with its reference. It fails
// an operation already counted, so it does not add to attempted.
func (o *outcome) mismatch(what string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, "digest mismatch: "+what)
	}
}

func (o *outcome) set(name string, v float64) {
	o.mu.Lock()
	o.values[name] = v
	o.mu.Unlock()
}

// result renders the final JSON line. Every listed metric must be present
// when required (end-to-end metrics); per-layer metrics a workload does not
// exercise read 0. A value not in the list is a naming bug and fails.
func (o *outcome) result(names []metricSpec, required bool) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	if required {
		o.values["ok_ratio"] = 1 - float64(o.failed)/float64(o.attempted)
	}
	listed := map[string]bool{}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range names {
		listed[m.Name] = true
		v, ok := o.values[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	for name := range o.values {
		if !listed[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
}

// summarize prints the metrics, the fail ratio and the first problems.
func (o *outcome) summarize(names []metricSpec) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: attempted=%d failed=%d fail_ratio=%g\n",
		o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	sorted := append([]metricSpec(nil), names...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", m.Name, o.values[m.Name], m.Unit)
	}
}

// percentiles returns the median and 90th percentile of xs.
func percentiles(xs []float64) (p50, p90 float64) {
	return stats.Percentile(xs, 50), stats.Percentile(xs, 90)
}
