package main

import (
	"context"
	"fmt"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/rmi"
)

// moveCmd is E2's message: the smallest realistic device command.
func moveCmd() *cmdlang.CmdLine {
	return cmdlang.New("move").SetFloat("pan", 45.5).SetFloat("tilt", -10.25)
}

// setupCall starts one plaintext daemon, default flow control and
// telemetry, whose move handler does nothing. Each caller dials it
// through its own pool.
func setupCall(e *env, logs []*spanLog) (*system, error) {
	s := &system{kinds: []string{"call"}}
	d := daemon.New(daemon.Config{Name: "e2", TraceBufferSpans: traceBufferSpans})
	d.Handle(cmdlang.CommandSpec{Name: "move", AllowExtra: true},
		func(*daemon.Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
	if err := d.Start(); err != nil {
		return nil, err
	}
	s.onClose(d.Stop)
	s.addDaemon(d)
	addr := d.Addr()
	for c := 0; c < callers; c++ {
		pool := s.newPool(e.seed*callers + int64(c) + 1)
		cmd := moveCmd()
		log := logs[c]
		// The first call dials; set-up pays it, not the measurement.
		if _, err := pool.Call(addr, cmd); err != nil {
			s.close()
			return nil, err
		}
		s.callers = append(s.callers, func(ctx context.Context) (int, error) {
			ctx, sp := log.begin(ctx, "daemon.Pool.Call")
			reply, err := pool.CallContext(ctx, addr, cmd)
			sp.end()
			if err != nil {
				return 0, err
			}
			if !cmdlang.IsOK(reply) {
				return 0, wrongf("move replied %q, want ok", reply.String())
			}
			return 0, nil
		})
	}
	s.requests = []*cmdlang.CmdLine{moveCmd()}
	s.extra = func(d time.Duration, untraced *phaseResult, out map[string]float64) error {
		p50, perS, allocs, err := rmiPhase(d)
		if err != nil {
			return err
		}
		out["rmi.call_p50_us"] = us(p50)
		out["rmi.calls_per_s"] = perS
		out["rmi.allocs_per_op"] = allocs
		out["call.ace_over_rmi_p50"] = float64(percentile(latencies(untraced.samples, 0), 50)) / float64(p50)
		return nil
	}
	return s, nil
}

// rmiCamera is the RMI-side counterpart of the move handler.
type rmiCamera struct{}

// Move does nothing, like the ACE handler.
func (rmiCamera) Move(pan, tilt float64) string { return "ok" }

// rmiPhase is the reference row: the same message, the same two
// closed-loop callers, each on its own connection, in this process,
// against the gob-over-TCP RMI baseline. It reports call p50, calls/s
// and allocations per call; none of it is gated.
func rmiPhase(d time.Duration) (p50 time.Duration, perS, allocsPerOp float64, err error) {
	srv := rmi.NewServer()
	srv.Register("camera", rmiCamera{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, 0, 0, err
	}
	defer srv.Stop()
	var ops []opFunc
	var logs []*spanLog
	for i := 0; i < callers; i++ {
		c, err := rmi.Dial(srv.Addr())
		if err != nil {
			return 0, 0, 0, err
		}
		defer c.Close()
		call := func(context.Context) (int, error) {
			res, err := c.Call("camera", "Move", 45.5, -10.25)
			if err == nil && (len(res) != 1 || res[0] != "ok") {
				err = wrongf("rmi Move returned %v, want [ok]", res)
			}
			return 0, err
		}
		if _, err := call(context.Background()); err != nil {
			return 0, 0, 0, err
		}
		ops = append(ops, call)
		logs = append(logs, &spanLog{})
	}
	p, err := runPhase(ops, logs, false, d, nil, []string{"call"})
	if err != nil {
		return 0, 0, 0, err
	}
	if p.failed > 0 {
		return 0, 0, 0, fmt.Errorf("rmi: %d calls failed: %w", p.failed, p.firstErr)
	}
	l := latencies(p.samples, 0)
	if len(l) == 0 {
		return 0, 0, 0, fmt.Errorf("rmi: no call completed")
	}
	return percentile(l, 50), float64(len(l)) / p.elapsed.Seconds(), float64(p.rt.allocs) / float64(len(l)), nil
}
