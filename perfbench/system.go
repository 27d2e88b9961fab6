package main

import (
	"fmt"
	"path/filepath"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
)

// callers is the number of closed-loop callers every workload runs:
// one per core of the two-core machine the benchmark is sized for.
const callers = 2

// traceBufferSpans bounds each daemon's span buffer. A traced phase
// records a few hundred thousand spans per daemon at most; the buffer
// only grows as spans arrive, so untraced runs pay nothing for it.
const traceBufferSpans = 1 << 19

// env is what a workload's set-up receives: the seed its inputs come
// from and a scratch directory inside the checkout.
type env struct {
	seed    int64
	workdir string
}

// system is one workload's running daemons plus the callers that
// drive them.
type system struct {
	kinds   []string // op kinds, indexed by what an opFunc returns
	callers []opFunc
	regs    []*telemetry.Registry
	bufs    []*telemetry.TraceBuffer
	// requests are command lines of the kinds the workload sends, for
	// timing cmdlang encode and parse in isolation.
	requests []*cmdlang.CmdLine
	// check, when set, runs the end-of-run output checks.
	check func() error
	// valueSize is the user bytes one put stores, for write
	// amplification; 0 where no put reaches a disk.
	valueSize int
	// extra, when set, runs the workload's stand-alone measurement (the
	// RMI reference row, the storage append timing) for about d.
	extra   func(d time.Duration, untraced *phaseResult, out map[string]float64) error
	closers []func()
}

func (s *system) onClose(f func()) { s.closers = append(s.closers, f) }

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// addDaemon records a daemon's registry and trace buffer.
func (s *system) addDaemon(d *daemon.Daemon) {
	s.regs = append(s.regs, d.Telemetry())
	s.bufs = append(s.bufs, d.Traces())
}

// newPool returns a client pool recording into its own registry, which
// the system samples; seed makes its retry jitter reproducible.
func (s *system) newPool(seed int64) *daemon.Pool {
	reg := telemetry.NewRegistry()
	p := daemon.NewPoolConfig(daemon.PoolConfig{Seed: seed, Telemetry: reg})
	s.regs = append(s.regs, reg)
	s.onClose(p.Close)
	return p
}

// newBenchRegistry returns a registry for the benchmark's own
// counters, sampled with the program's.
func (s *system) newBenchRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	s.regs = append(s.regs, reg)
	return reg
}

// newStoreClient returns a quorum client over the replica group,
// closed before the pool it dials through.
func (s *system) newStoreClient(pool *daemon.Pool, addrs []string) *pstore.Client {
	c := pstore.NewClient(pool, addrs)
	s.onClose(c.Close)
	return c
}

// startStore starts an n-node pstore replica group the way
// pstore.StartCluster does, with span buffers sized for a traced
// phase. A non-empty dir makes the nodes durable, writing through fs.
func (s *system) startStore(n int, dir string, fs storage.FS) ([]string, error) {
	var nodes []*pstore.Node
	s.onClose(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("pstore%d", i+1)
		cfg := pstore.Config{Daemon: daemon.Config{Name: name, TraceBufferSpans: traceBufferSpans}}
		if dir != "" {
			cfg.Dir = dir
			cfg.Storage = storage.Options{FS: fs}
		}
		nd, err := pstore.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		if err := nd.Start(); err != nil {
			nd.Stop()
			return nil, err
		}
		nodes = append(nodes, nd)
		s.addDaemon(nd.Daemon)
	}
	addrs := make([]string, n)
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	for i, nd := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		nd.SetPeers(peers)
	}
	return addrs, nil
}

// scratchDir is a fresh directory under the workdir for one set-up.
func (e *env) scratchDir(name string) string {
	return filepath.Join(e.workdir, "tmp", fmt.Sprintf("%s-%d", name, e.seed))
}
