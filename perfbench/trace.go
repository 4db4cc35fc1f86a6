package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/cpu"
	"jvmpower/internal/experiments"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// span is one timed interval at a layer boundary, recorded from outside the
// program. Spans of one operation (a point or a job) share Op; Parent names
// the enclosing span. An aggregated span (Count > 0) sums Count calls, such
// as every core.Meter.Execute call a point made for one component.
type span struct {
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	Dur    float64 `json:"dur_s"`
	Count  int64   `json:"count,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
type tracer struct {
	t0    time.Time
	nextO atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) op() int64 { return t.nextO.Add(1) }

func (t *tracer) add(op int64, name, parent string, start time.Time, d time.Duration, count int64, detail string) {
	t.mu.Lock()
	t.spans = append(t.spans, span{op, name, parent, start.Sub(t.t0).Seconds(), d.Seconds(), count, detail})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timingExec is the vm.Executor the traced composition hands vm.New. It
// forwards every slice to the core.Meter, times the call (the measurement
// chain), and charges the interval since the previous call — VM self time —
// to the component ID of the call that ends it, the way the paper charged
// sampled cost to the component ID the JVM wrote on each transition.
type timingExec struct {
	meter *core.Meter
	last  time.Time
	gap   [component.N]time.Duration
	exec  [component.N]time.Duration
	calls [component.N]int64
}

func (t *timingExec) Execute(id component.ID, s cpu.Slice) {
	t0 := time.Now()
	t.meter.Execute(id, s)
	t.charge(id, t0)
}

func (t *timingExec) ExecuteMeasured(id component.ID, instructions int64, prof cpu.MissProfile, ifetchMisses int64) {
	t0 := time.Now()
	t.meter.ExecuteMeasured(id, instructions, prof, ifetchMisses)
	t.charge(id, t0)
}

func (t *timingExec) charge(id component.ID, t0 time.Time) {
	t1 := time.Now()
	t.gap[id] += t0.Sub(t.last)
	t.exec[id] += t1.Sub(t0)
	t.calls[id]++
	t.last = t1
}

// gapGroup folds component IDs into the vm.gap_s.* metric groups.
func gapGroup(id component.ID) string {
	switch id {
	case component.App:
		return "app"
	case component.GC:
		return "gc"
	case component.ClassLoader:
		return "cl"
	case component.BaseCompiler, component.OptCompiler, component.JITCompiler:
		return "jit"
	case component.Scheduler:
		return "sched"
	}
	return "idle"
}

// layerTimes sums one traced point's calls into each layer.
type layerTimes struct {
	newMeter, vmNew, vmRun, build time.Duration
	exec                          *timingExec
	machine                       *vm.VM
	meter                         *core.Meter
}

// composePoint computes p exactly as core.Characterize does for a Runner
// with CLI defaults, but from the layers' own public calls, so each call
// can be timed: core.NewMeter, vm.New with a timing executor,
// VM.RunProfile, analysis.Build. Its result must digest equal to the
// Runner's for the same point.
func composePoint(p experiments.Point, quick bool, seed uint64) (*core.Result, layerTimes, error) {
	var lt layerTimes
	profile := p.Bench.Profile
	if p.S10 {
		profile = workloads.S10Profile(p.Bench)
	}
	if quick {
		profile = profile.Scale(0.25)
	}
	t0 := time.Now()
	agg := analysis.NewAggregator(p.Platform.DAQPeriod)
	meter, err := core.NewMeter(p.Platform, core.MeterOptions{Sink: agg, FanOn: !p.FanOff, Seed: seed})
	if err != nil {
		return nil, lt, err
	}
	t1 := time.Now()
	ex := &timingExec{meter: meter}
	machine, err := vm.New(vm.Config{
		Flavor:    p.Flavor,
		Collector: p.Collector,
		HeapSize:  units.ByteSize(p.HeapMB) * units.MB,
		Seed:      seed,
	}, p.Bench.Program(), ex)
	if err != nil {
		return nil, lt, err
	}
	defer machine.ReleaseResources()
	t2 := time.Now()
	ex.last = t2
	if err := machine.RunProfile(profile); err != nil {
		return nil, lt, fmt.Errorf("%s: %w", p, err)
	}
	t3 := time.Now()
	dec := analysis.Build(profile.Name, p.Flavor.String(), machine.Collector().Name(),
		p.Platform.Name, p.HeapMB, agg, meter.HPM())
	t4 := time.Now()
	lt = layerTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), ex, machine, meter}
	return &core.Result{
		Decomposition: dec,
		Meter:         meter,
		GCStats:       machine.Collector().Stats(),
		LoadedClasses: machine.Loader().LoadedCount(),
		FaultCounts:   meter.FaultCounts(),
	}, lt, nil
}

// layerTally accumulates per-layer metrics over the traced points.
type layerTally struct {
	mu sync.Mutex
	v  map[string]float64
}

// observe adds one traced point's layer times and simulated counts, and
// records its spans.
func (l *layerTally) observe(tr *tracer, op int64, start time.Time, lt layerTimes, res *core.Result) {
	st := res.GCStats
	h := lt.machine.Heap()
	var execAll time.Duration
	var calls, instr int64
	gaps := map[string]time.Duration{}
	for id := component.ID(0); id < component.N; id++ {
		execAll += lt.exec.exec[id]
		calls += lt.exec.calls[id]
		instr += lt.meter.TrueCounters(id).Instructions
		gaps[gapGroup(id)] += lt.exec.gap[id]
	}
	l.mu.Lock()
	add := func(name string, v float64) { l.v[name] += v }
	add("core.new_meter_s", lt.newMeter.Seconds())
	add("vm.new_s", lt.vmNew.Seconds())
	add("vm.run_s", lt.vmRun.Seconds())
	add("vm.self_s", (lt.vmRun - execAll).Seconds())
	for _, g := range []string{"app", "gc", "cl", "jit", "sched"} {
		add("vm.gap_s."+g, gaps[g].Seconds())
	}
	add("analysis.build_s", lt.build.Seconds())
	add("core.execute_s", execAll.Seconds())
	add("core.slices", float64(calls))
	add("daq.samples", float64(lt.meter.DAQSamples()))
	add("hpm.ticks", float64(lt.meter.HPM().Ticks()))
	add("sim.instructions", float64(instr))
	add("heap.objects", float64(h.AllocCount()))
	add("heap.bytes", float64(h.AllocBytes()))
	add("gc.collections", float64(st.Collections))
	add("gc.full_collections", float64(st.FullCollections))
	add("gc.objects_copied", float64(st.ObjectsCopied))
	add("gc.bytes_copied", float64(st.BytesCopied))
	l.mu.Unlock()

	if tr == nil {
		return
	}
	t := start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"core.new_meter", lt.newMeter}, {"vm.new", lt.vmNew}, {"vm.run_profile", lt.vmRun}, {"analysis.build", lt.build}} {
		tr.add(op, s.name, "point", t, s.d, 0, "")
		t = t.Add(s.d)
	}
	for id := component.ID(0); id < component.N; id++ {
		if lt.exec.calls[id] > 0 {
			tr.add(op, "core.execute."+id.String(), "vm.run_profile", start, lt.exec.exec[id], lt.exec.calls[id], "")
			tr.add(op, "vm.gap."+id.String(), "vm.run_profile", start, lt.exec.gap[id], lt.exec.calls[id], "")
		}
	}
}

// derive fills the ratios computed from the sums.
func (l *layerTally) derive(out *outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range l.v {
		out.set(k, v)
	}
	if n := l.v["heap.objects"]; n > 0 {
		out.set("vm.ns_per_object", l.v["vm.gap_s.app"]/n*1e9)
	}
	if n := l.v["gc.collections"]; n > 0 {
		out.set("gc.ms_per_collection", l.v["vm.gap_s.gc"]/n*1e3)
	}
	if n := l.v["core.slices"]; n > 0 {
		out.set("core.execute_ns_per_slice", l.v["core.execute_s"]/n*1e9)
	}
}
