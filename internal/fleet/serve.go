package fleet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jvmpower/internal/benchstat"
	"jvmpower/internal/pointproto"
)

// defaultHeartbeatInterval paces a node's liveness ticks; it must stay
// well under the coordinator's HeartbeatTimeout (default 5s).
const defaultHeartbeatInterval = 500 * time.Millisecond

// ServeConfig configures one executor node.
type ServeConfig struct {
	// Name identifies the node in coordinator logs and journal events.
	// Defaults to the listener address.
	Name string
	// Capacity is the node's concurrent-point budget, advertised in the
	// handshake; the coordinator keeps at most this many tasks in flight.
	// Defaults to GOMAXPROCS.
	Capacity int
	// Handler computes one point and returns its opaque result payload
	// (the experiments layer returns the same encoded result a pipe worker's
	// MsgResult carries, which is what keeps fleet runs byte-identical).
	Handler func(pointproto.Spec) []byte
	// HeartbeatInterval paces liveness ticks. Defaults to 500ms.
	HeartbeatInterval time.Duration
	// Stderr, when set, receives node-side log lines.
	Stderr io.Writer
	// Drain, when non-nil, arms graceful drain: once it closes, the node
	// stops accepting connections and tasks, finishes every in-flight
	// point (results are still delivered, heartbeats keep ticking so the
	// coordinator's watchdog stays fed), announces departure with a
	// MsgNodeGoodbye frame, and closes each connection cleanly — the
	// coordinator sees a drained node, not a disconnect crash. Serve then
	// returns nil. Context cancellation remains the hard-abort path.
	Drain <-chan struct{}
}

// Serve runs an executor node on a listener until ctx is cancelled: each
// accepted coordinator connection gets the NodeHello handshake (identity,
// capacity, benchstat-style environment capture), a heartbeat ticker, and
// a Task-frame read loop that computes points concurrently up to Capacity
// and answers with TaskResult frames in completion order. It returns after
// every connection has unwound — with nil when cfg.Drain triggered a
// graceful drain.
func Serve(ctx context.Context, ln net.Listener, cfg ServeConfig) error {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	if cfg.Name == "" {
		cfg.Name = ln.Addr().String()
	}
	var (
		mu       sync.Mutex
		conns    = make(map[net.Conn]struct{})
		wg       sync.WaitGroup
		draining atomic.Bool
	)
	closeAll := func() {
		ln.Close()
		mu.Lock()
		for conn := range conns {
			conn.Close()
		}
		mu.Unlock()
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		if cfg.Drain != nil {
			select {
			case <-cfg.Drain:
				// Stop accepting; live connections drain themselves (each
				// serveConn watches cfg.Drain). A later ctx cancellation
				// still hard-aborts a drain that wedges.
				draining.Store(true)
				ln.Close()
			case <-ctx.Done():
				closeAll()
				return
			case <-done:
				return
			}
		}
		select {
		case <-ctx.Done():
			closeAll()
		case <-done:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if draining.Load() && ctx.Err() == nil {
				wg.Wait() // every connection finishes its goodbye sequence
				logf(cfg, "fleet node %s: drained", cfg.Name)
				return nil
			}
			closeAll()
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(conn, cfg)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
}

// serveConn speaks the socket dialect on one coordinator connection.
func serveConn(conn net.Conn, cfg ServeConfig) {
	defer conn.Close()
	var wmu sync.Mutex
	send := func(t pointproto.MsgType, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return pointproto.WriteFrame(conn, t, payload)
	}

	env := benchstat.CaptureEnvironment(nil, "")
	hello := pointproto.NodeHello{
		Version:    pointproto.Version,
		Name:       cfg.Name,
		PID:        uint64(os.Getpid()),
		Capacity:   uint64(cfg.Capacity),
		GOOS:       env.GOOS,
		GOARCH:     env.GOARCH,
		CPU:        env.CPU,
		GoVersion:  env.GoVersion,
		GOMAXPROCS: uint64(env.GOMAXPROCS),
		NumCPU:     uint64(env.NumCPU),
	}
	if err := send(pointproto.MsgNodeHello, pointproto.MarshalNodeHello(hello)); err != nil {
		return
	}

	// Two groups with different lifetimes: tasks must all finish before the
	// goodbye frame (their results ride the same connection), while the
	// heartbeat and drain watcher keep running *through* that wait — a long
	// final point must not starve the coordinator's watchdog — and stop only
	// when the connection is done for good.
	stop := make(chan struct{})
	var aux, tasks sync.WaitGroup
	var draining atomic.Bool
	defer aux.Wait()
	defer close(stop)
	aux.Add(1)
	go func() {
		defer aux.Done()
		tick := time.NewTicker(cfg.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := send(pointproto.MsgHeartbeat, nil); err != nil {
					return
				}
			}
		}
	}()
	if cfg.Drain != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			select {
			case <-cfg.Drain:
				draining.Store(true)
				// Unblock the read loop without touching the write half:
				// in-flight results and the goodbye still need the socket.
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseRead()
				} else {
					conn.SetReadDeadline(time.Now())
				}
			case <-stop:
			}
		}()
	}

	br := bufio.NewReader(conn)
	sem := make(chan struct{}, cfg.Capacity)
	for {
		typ, payload, err := pointproto.ReadFrame(br)
		if err != nil {
			if draining.Load() {
				// Drain epilogue: finish in-flight points (their TaskResult
				// frames are sent from the task goroutines), then announce
				// the deliberate departure so the coordinator's next EOF
				// reads as a drained node rather than a crash.
				tasks.Wait()
				_ = send(pointproto.MsgNodeGoodbye, nil)
			} else if err != io.EOF {
				logf(cfg, "fleet node %s: read: %v", cfg.Name, err)
			}
			tasks.Wait()
			return
		}
		if typ != pointproto.MsgTask {
			logf(cfg, "fleet node %s: unexpected %s frame", cfg.Name, typ)
			tasks.Wait()
			return
		}
		task, err := pointproto.UnmarshalTask(payload)
		if err != nil {
			logf(cfg, "fleet node %s: %v", cfg.Name, err)
			tasks.Wait()
			return
		}
		sem <- struct{}{} // backpressure: at most Capacity points computing
		tasks.Add(1)
		go func() {
			defer tasks.Done()
			defer func() { <-sem }()
			defer func() {
				// A panicking handler drops the connection: the
				// coordinator sees a disconnect and reschedules the
				// point, exactly as a pipe worker's death would.
				if r := recover(); r != nil {
					logf(cfg, "fleet node %s: point panic: %v", cfg.Name, r)
					conn.Close()
				}
			}()
			out := cfg.Handler(task.Spec)
			res := pointproto.MarshalTaskResult(pointproto.TaskResult{ID: task.ID, Payload: out})
			if err := send(pointproto.MsgTaskResult, res); err != nil {
				return
			}
		}()
	}
}

func logf(cfg ServeConfig, format string, args ...any) {
	if cfg.Stderr != nil {
		fmt.Fprintf(cfg.Stderr, format+"\n", args...)
	}
}
