package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"jvmpower/internal/faultinject"
	"jvmpower/internal/platform"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/workloads"
)

// Worker mode: the experiments binary re-invoked as a supervised point
// worker (`experiments -worker`). The parent's supervisor sends one
// pointproto.Spec per characterization point; the worker reconstructs the
// point and an inner Runner from it and computes through the exact
// resilience stack the in-process path uses (computeResilient: quorum
// repetitions, transient-fault retries, panic isolation), streaming
// heartbeats while it works. The result payload is the point codec's
// encoding of a workerResult — whose Point field is the same cachedPoint
// the disk cache persists — so the parent consumes an isolated result
// exactly as it consumes a cache hit, which is what makes isolated and
// in-process runs byte-identical at the same seed.

// workerHeartbeatInterval paces liveness frames during a point. It must sit
// well under any plausible supervisor heartbeat budget (default 2s).
const workerHeartbeatInterval = 50 * time.Millisecond

// workerResult is the payload of a MsgResult frame: either a completed
// point (OK with its cachedPoint) or the attempt chain's terminal error,
// rendered to a string — the same string the in-process path would have put
// in the fault report, so degraded cells read identically either way.
type workerResult struct {
	OK       bool
	Err      string
	Attempts int
	Point    cachedPoint
}

// ServeWorker runs the worker side of the protocol until the parent closes
// the spec stream (clean shutdown) or a write fails (the parent died; the
// worker has no reason to outlive it). Specs are served strictly in order,
// one at a time — parallelism is the parent's pool, not the worker's.
func ServeWorker(in io.Reader, out io.Writer) error {
	if err := pointproto.WriteFrame(out, pointproto.MsgHello,
		pointproto.MarshalHello(pointproto.Hello{Version: pointproto.Version, PID: uint64(os.Getpid())})); err != nil {
		return fmt.Errorf("experiments: worker handshake: %w", err)
	}
	br := bufio.NewReader(in)
	for {
		typ, payload, err := pointproto.ReadFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("experiments: worker reading spec: %w", err)
		}
		if typ != pointproto.MsgSpec {
			return fmt.Errorf("experiments: worker got unexpected %s frame", typ)
		}
		spec, err := pointproto.UnmarshalSpec(payload)
		if err != nil {
			return fmt.Errorf("experiments: worker decoding spec: %w", err)
		}
		if err := serveSpec(out, spec); err != nil {
			return err
		}
	}
}

// serveSpec computes one spec and writes heartbeats and the result. All
// frames are written from this goroutine — the compute runs beside it — so
// frames can never interleave mid-write.
func serveSpec(out io.Writer, spec pointproto.Spec) error {
	// Feed the parent's watchdog immediately: reconstructing the point is
	// cheap but the first ticker tick is an interval away.
	if err := pointproto.WriteFrame(out, pointproto.MsgHeartbeat, nil); err != nil {
		return err
	}
	inner, p, perr := rebuild(spec)

	// The worker-only fault directives fire here, after the handshake and
	// first heartbeat, keyed by the same canonical point identity every
	// other directive targets. They simulate the two deaths only process
	// isolation can contain, for the supervisor's own acceptance tests.
	if perr == nil {
		key := p.String()
		if inner.Faults.PointHangs(key) {
			// Wedge: no heartbeat, no result, no exit — the supervisor's
			// watchdog must kill us. A sleep loop, not an empty select:
			// blocking every goroutine forever trips the runtime's deadlock
			// detector and would turn this hang into an exit.
			for {
				time.Sleep(time.Hour)
			}
		}
		if inner.Faults.PointKills(key) {
			// The kernel OOM killer's exact signature: a SIGKILL the
			// supervisor did not send.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			for {
				time.Sleep(time.Hour)
			}
		}
	}

	resCh := make(chan workerResult, 1)
	go func() {
		resCh <- specResult(inner, p, perr)
	}()

	tick := time.NewTicker(workerHeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := pointproto.WriteFrame(out, pointproto.MsgHeartbeat, nil); err != nil {
				return err
			}
		case wr := <-resCh:
			return pointproto.WriteFrame(out, pointproto.MsgResult, encodePoint(&wr))
		}
	}
}

// specResult computes one rebuilt spec through the resilience stack,
// folding the outcome — completed point, point failure, or a rebuild
// error — into the workerResult shape both transports carry.
func specResult(inner *Runner, p Point, perr error) workerResult {
	if perr != nil {
		return workerResult{Err: perr.Error(), Attempts: 1}
	}
	res, attempts, err := inner.computeResilient(p)
	if err != nil {
		return workerResult{Err: err.Error(), Attempts: attempts}
	}
	return workerResult{OK: true, Attempts: attempts, Point: pointOf(res)}
}

// rebuild reconstructs the characterization point and an inner Runner from
// a wire spec. The inner runner carries exactly the settings that determine
// a point's bytes (seed, quick, fault plan, reps, retries) and none of the
// parent's supervision — timeouts, cancellation, and kill are the parent's
// job now, which is the entire reason the worker exists.
func rebuild(spec pointproto.Spec) (*Runner, Point, error) {
	bench, err := workloads.ByName(spec.Bench)
	if err != nil {
		return nil, Point{}, fmt.Errorf("experiments: worker: %w", err)
	}
	flavor, ok := flavorByName(spec.Flavor)
	if !ok {
		return nil, Point{}, fmt.Errorf("experiments: worker: unknown VM flavor %q", spec.Flavor)
	}
	plat, err := platform.ByName(spec.Platform)
	if err != nil {
		return nil, Point{}, fmt.Errorf("experiments: worker: %w", err)
	}
	plan, err := faultinject.Parse(spec.Faults)
	if err != nil {
		return nil, Point{}, fmt.Errorf("experiments: worker: %w", err)
	}
	inner := NewRunner(io.Discard)
	inner.Quick = spec.Quick
	inner.Seed = spec.Seed
	inner.Faults = plan
	inner.Reps = spec.Reps
	inner.Retries = spec.Retries
	p := Point{
		Bench:     bench,
		Flavor:    flavor,
		Collector: spec.Collector,
		HeapMB:    spec.HeapMB,
		Platform:  plat,
		S10:       spec.S10,
		FanOff:    spec.FanOff,
	}
	if err := p.validate(); err != nil {
		return nil, Point{}, err
	}
	return inner, p, nil
}
