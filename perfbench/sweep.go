package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"jvmpower/internal/experiments"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/stats"
	"jvmpower/internal/supervisor"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// The sweep workloads. paper-sweep runs whole paper-scale heap sweeps on an
// in-process Runner with the CLI defaults (no cache, journal or memo);
// isolate-sweep runs the same kind of draw at quick scale with every point
// routed through Runner.Supervisor to supervised worker subprocesses (the
// repository's own `experiments -worker`). Both are closed loops: one
// RunAll per sweep, the next sweep started when the last one completes.

// traceSweepCount is how many sweeps a traced run replays: half a round of
// paper-scale sweeps, three rounds of quick ones.
func traceSweepCount(quick bool) int {
	if quick {
		return 48
	}
	return 8
}

type sweepWorkload struct {
	cfg      config
	quick    bool
	reg      *metrics.Registry
	sup      *supervisor.Supervisor // isolate-sweep only
	supSetup time.Duration
}

// buildPrograms generates every benchmark program up front. Programs are
// generated lazily on first use and that cache is not synchronized, so
// parallel in-process workers must not be the ones to build them.
func buildPrograms() {
	for _, b := range workloads.All() {
		b.Program()
	}
}

// setupSweeps builds the workload's program: the benchmark programs for
// paper-sweep; for isolate-sweep the supervisor with every worker spawned
// and handshaken.
func setupSweeps(cfg config) (*sweepWorkload, error) {
	w := &sweepWorkload{cfg: cfg, quick: cfg.workload == "isolate-sweep", reg: metrics.NewRegistry()}
	if !w.quick {
		buildPrograms()
		return w, nil
	}
	t0 := time.Now()
	sup, err := supervisor.New(supervisor.Config{
		Argv:    []string{filepath.Join(cfg.bin, "experiments"), "-worker"},
		Workers: cfg.nproc,
		Metrics: w.reg,
		Stderr:  os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	// Workers spawn on a slot's first use: one tiny point per slot, all at
	// once, spawns and handshakes every worker inside set-up.
	warm := pointproto.Spec{
		Bench: "moldyn", Flavor: vm.Jikes.String(), Collector: "SemiSpace",
		HeapMB: 32, Platform: platform.P6().Name, Seed: simSeed, Quick: true,
	}
	errs := make(chan error, cfg.nproc)
	for i := 0; i < cfg.nproc; i++ {
		go func() {
			_, err := sup.Run(context.Background(), warm)
			errs <- err
		}()
	}
	for i := 0; i < cfg.nproc; i++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		sup.Close()
		return nil, fmt.Errorf("handshaking workers: %w", err)
	}
	w.sup = sup
	w.supSetup = time.Since(t0)
	return w, nil
}

// close stops and reaps the workers. Safe to call twice.
func (w *sweepWorkload) close() {
	if w.sup != nil {
		w.sup.Close()
	}
}

// pointObs is one completed point: its reference key, result digest and
// host seconds as Runner.OnPoint reported them.
type pointObs struct {
	key    string
	point  experiments.Point
	digest string
	sec    float64
}

// sweepObs is what one pass of the closed loop observed.
type sweepObs struct {
	wall    time.Duration
	jobs    []float64 // seconds per sweep (one RunAll call)
	points  []pointObs
	sources map[string]int // PointEvent.Source → points
	mbc     float64        // simulated million bytecodes of completed points
	fetches int64          // Run calls made to read results back
}

// runPass runs sweeps until next returns nil or stop (if set) reports
// true, each on a fresh Runner so every point is computed rather than
// served from an earlier sweep's memory. With isolated set, points go to
// the supervised workers.
func (w *sweepWorkload) runPass(next func() []experiments.Point, stop func() bool, isolated bool, reg *metrics.Registry, out *outcome) sweepObs {
	obs := sweepObs{sources: map[string]int{}}
	var mu sync.Mutex
	secs := map[string]float64{}
	start := time.Now()
	for stop == nil || !stop() {
		pts := next()
		if pts == nil {
			break
		}
		r := experiments.NewRunner(io.Discard)
		r.Quick = w.quick
		r.Metrics = reg
		if isolated {
			r.Supervisor = w.sup
		}
		r.OnPoint = func(p experiments.Point, ev experiments.PointEvent) {
			mu.Lock()
			secs[pointKey(p, w.quick, simSeed)] = ev.DurationMS / 1e3
			obs.sources[ev.Source]++
			mu.Unlock()
		}
		t0 := time.Now()
		err := r.RunAll(pts)
		obs.jobs = append(obs.jobs, time.Since(t0).Seconds())
		out.op(errText(err))
		for _, p := range pts {
			// The Runner holds every point it computed; reading one back is
			// a memory lookup (and one singleflight hit, subtracted later).
			res, err := r.Run(p)
			obs.fetches++
			if err != nil {
				out.op(err.Error())
				continue
			}
			d, err := pointDigest(res)
			out.op(errText(err))
			key := pointKey(p, w.quick, simSeed)
			mu.Lock()
			obs.points = append(obs.points, pointObs{key, p, d, secs[key]})
			mu.Unlock()
			obs.mbc += float64(simBytecodes(p.Bench.Name, p.S10, w.quick)) / 1e6
		}
	}
	obs.wall = time.Since(start)
	return obs
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pointSeconds lists the observed per-point seconds.
func (o sweepObs) pointSeconds() []float64 {
	xs := make([]float64, len(o.points))
	for i, p := range o.points {
		xs[i] = p.sec
	}
	return xs
}

// measureSweeps is an untraced sweep run. It returns its own set-up time.
func measureSweeps(cfg config, store *digestStore, out *outcome) (time.Duration, error) {
	t0 := time.Now()
	w, err := setupSweeps(cfg)
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	defer w.close()

	// The loop measures whole rounds: it stops at the first round boundary
	// after the deadline, and never before minRounds, so every run has the
	// same benchmark mix.
	gen := newSweepGen(cfg.seed, w.quick)
	deadline := time.Now().Add(cfg.seconds)
	stop := func() bool { return gen.atRoundStart() && gen.round >= minRounds && !time.Now().Before(deadline) }
	obs := w.runPass(gen.next, stop, w.sup != nil, w.reg, out)
	w.close() // reap the workers so their resident sets count
	out.set("peak_rss_mb", peakRSSMB())

	wall := obs.wall.Seconds()
	p50, p90 := percentiles(obs.pointSeconds())
	out.set("point_s_p50", p50)
	out.set("point_s_p90", p90)
	j50, j90 := percentiles(obs.jobs)
	out.set("job_s_p50", j50)
	out.set("job_s_p90", j90)
	out.set("jobs_per_s", float64(len(obs.jobs))/wall)
	out.set("sim_mbc_per_s", obs.mbc/wall)
	fmt.Fprintf(os.Stderr, "perfbench: %d sweeps, %d points in %.2fs\n", len(obs.jobs), len(obs.points), wall)

	if w.quick {
		return setup, checkAgainstInProcess(obs.points, store, out)
	}
	recordRefs(obs.points, store, out)
	return setup, nil
}

// recordRefs checks in-process results against (or records them as) the
// build's references.
func recordRefs(points []pointObs, store *digestStore, out *outcome) {
	for _, p := range points {
		if !store.record(p.key, p.digest) {
			out.mismatch(p.key)
		}
	}
}

// checkAgainstInProcess compares isolated results with the same points
// computed by an in-process Runner, computing (outside any timed region)
// the references this build has not computed before.
func checkAgainstInProcess(points []pointObs, store *digestStore, out *outcome) error {
	var missing []experiments.Point
	seen := map[string]bool{}
	for _, p := range points {
		if _, ok := store.ref(p.key); !ok && !seen[p.key] {
			seen[p.key] = true
			missing = append(missing, p.point)
		}
	}
	if len(missing) > 0 {
		buildPrograms()
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		if err := r.RunAll(missing); err != nil {
			return fmt.Errorf("computing in-process references: %w", err)
		}
		for _, p := range missing {
			res, err := r.Run(p)
			if err != nil {
				return fmt.Errorf("computing in-process reference %s: %w", p, err)
			}
			d, err := pointDigest(res)
			if err != nil {
				return err
			}
			store.record(pointKey(p, true, simSeed), d)
		}
	}
	for _, p := range points {
		if ref, _ := store.ref(p.key); ref != p.digest {
			out.mismatch(p.key + " isolated vs in-process")
		}
	}
	return nil
}

// traceSweeps is a traced sweep run over a fixed, seed-determined list of
// sweeps. Pass U runs each sweep as the workload does; isolate-sweep adds
// pass I, the same points on an in-process Runner; pass T computes them
// again through the timed composition of the layers' own calls. Each
// sweep goes through every pass back to back, the order alternating from
// sweep to sweep, so drift in the host's speed falls on the passes alike.
func traceSweeps(cfg config, store *digestStore, out *outcome, tr *tracer) error {
	w, err := setupSweeps(cfg)
	if err != nil {
		return err
	}
	defer w.close()
	out.set("supervisor.setup_s", w.supSetup.Seconds())
	buildPrograms() // passes I and T compute in this process

	gen := newSweepGen(cfg.seed, w.quick)
	inReg := metrics.NewRegistry()
	tally := &layerTally{v: map[string]float64{}}
	var u, in, t sweepObs
	for i := 0; i < traceSweepCount(w.quick); i++ {
		pts := gen.next()
		passes := []func(){
			func() { u.merge(w.runPass(once(pts), nil, w.quick, w.reg, out)) },
			func() { t.merge(composePass(cfg.nproc, pts, w.quick, tr, tally, out)) },
		}
		if w.quick {
			passes = append(passes, func() { in.merge(w.runPass(once(pts), nil, false, inReg, out)) })
		}
		if i%2 == 1 {
			slices.Reverse(passes)
		}
		for _, pass := range passes {
			pass()
		}
	}
	runnerLayer(out, w.reg, u.sources, u.fetches, u.wall)
	if w.sup != nil {
		out.set("supervisor.spawns", float64(w.reg.Counter("supervisor.spawns").Value()))
		out.set("supervisor.restarts", float64(w.reg.Counter("supervisor.restarts").Value()))
		out.set("supervisor.crashes", float64(sumCounters(w.reg, "supervisor.crashes.")))
	}

	base := u
	if w.quick {
		recordRefs(in.points, store, out)
		if err := checkAgainstInProcess(u.points, store, out); err != nil {
			return err
		}
		local := map[string]float64{}
		for _, p := range in.points {
			local[p.key] = p.sec
		}
		var over []float64
		for _, p := range u.points {
			over = append(over, (p.sec-local[p.key])*1e3)
		}
		out.set("transport.isolate_overhead_ms_p50", stats.Percentile(over, 50))
		base = in
	} else {
		recordRefs(u.points, store, out)
	}
	for _, p := range t.points {
		if ref, _ := store.ref(p.key); ref != p.digest {
			out.mismatch(p.key + " traced vs untraced")
		}
	}

	tally.derive(out)
	var bytecodes, pointSum float64
	for _, p := range base.points {
		bytecodes += float64(simBytecodes(p.point.Bench.Name, p.point.S10, w.quick))
		pointSum += p.sec
	}
	out.set("sim.bytecodes", bytecodes)
	out.set("trace.overhead", t.wall.Seconds()/base.wall.Seconds()-1)
	acc := tally.v["vm.new_s"] + tally.v["vm.run_s"] + tally.v["analysis.build_s"]
	out.set("trace.accounted_ratio", acc/pointSum)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d sweeps: untraced wall %.2fs, traced wall %.2fs, layers account for %.1f%% of point time\n",
		traceSweepCount(w.quick), base.wall.Seconds(), t.wall.Seconds(), 100*acc/pointSum)
	return nil
}

// once returns a sweep source that yields pts and then stops.
func once(pts []experiments.Point) func() []experiments.Point {
	done := false
	return func() []experiments.Point {
		if done {
			return nil
		}
		done = true
		return pts
	}
}

// merge folds another pass's observations into o.
func (o *sweepObs) merge(p sweepObs) {
	o.wall += p.wall
	o.jobs = append(o.jobs, p.jobs...)
	o.points = append(o.points, p.points...)
	if o.sources == nil {
		o.sources = map[string]int{}
	}
	for k, v := range p.sources {
		o.sources[k] += v
	}
	o.mbc += p.mbc
	o.fetches += p.fetches
}

// runnerLayer records the experiments-layer counts of a pass: points by
// source, lookup hit ratios (less the fetches the benchmark itself made to
// read results back), cache errors and worker utilization.
func runnerLayer(out *outcome, reg *metrics.Registry, sources map[string]int, fetches int64, wall time.Duration) {
	for _, src := range []string{"computed", "disk", "shared", "isolated", "fleet"} {
		out.set("runner.points."+src, float64(sources[src]))
	}
	hits := reg.Counter("experiments.singleflight.hits").Value() - fetches
	out.set("runner.singleflight.hit_ratio", ratio(hits, reg.Counter("experiments.singleflight.misses").Value()))
	out.set("runner.diskcache.hit_ratio", ratio(reg.Counter("experiments.diskcache.hits").Value(), reg.Counter("experiments.diskcache.misses").Value()))
	out.set("runner.shared.hit_ratio", ratio(reg.Counter("experiments.shared.hits").Value(), reg.Counter("experiments.shared.misses").Value()))
	out.set("runner.diskcache.write_errors", float64(reg.Counter("experiments.diskcache.write_errors").Value()))
	out.set("runner.diskcache.corrupt", float64(reg.Counter("experiments.diskcache.corrupt").Value()))
	if workers := reg.Gauge("experiments.workers.count").Value(); workers > 0 && wall > 0 {
		out.set("runner.worker_util", float64(reg.Counter("experiments.workers.busy_ns").Value())/(float64(wall)*workers))
	}
}

// ratio is hits / (hits + misses), 0 when nothing was looked up.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// sumCounters adds every counter whose name starts with prefix.
func sumCounters(reg *metrics.Registry, prefix string) int64 {
	var n int64
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, prefix) {
			n += reg.Counter(name).Value()
		}
	}
	return n
}

// composePass computes one sweep's points through composePoint on nproc
// goroutines, as RunAll would, recording their layer times, spans and
// digests.
func composePass(nproc int, pts []experiments.Point, quick bool, tr *tracer, tally *layerTally, out *outcome) sweepObs {
	obs := sweepObs{}
	var mu sync.Mutex
	start := time.Now()
	jobs := make(chan experiments.Point)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				op := tr.op()
				t0 := time.Now()
				res, lt, err := composePoint(p, quick, simSeed)
				d := time.Since(t0)
				if err != nil {
					out.op(err.Error())
					continue
				}
				tr.add(op, "point", "", t0, d, 0, p.String())
				tally.observe(tr, op, t0, lt, res)
				dig, err := pointDigest(res)
				out.op(errText(err))
				mu.Lock()
				obs.points = append(obs.points, pointObs{pointKey(p, quick, simSeed), p, dig, d.Seconds()})
				mu.Unlock()
			}
		}()
	}
	for _, p := range pts {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	obs.wall = time.Since(start)
	return obs
}
