package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/workload"
)

const (
	dirReplicas = 3
	dirServices = 32
	dirNames    = 256
	// dirLeaseMs outlives any run, so no lease expires under the load.
	dirLeaseMs = 600000
	// renewFrac is caller B's share of renewals; the rest re-register a
	// name onto another daemon.
	renewFrac = 0.9
)

// Op kinds of the directory workload.
const (
	dirResolveCall = iota
	dirRenew
	dirRegister
)

// holders records, per name, every service daemon the name was ever
// registered to and the one it was registered to last.
type holders struct {
	held   []atomic.Uint32 // bit d set: daemon d held the name at some point
	latest []atomic.Int32
}

func newHolders(names int) *holders {
	return &holders{held: make([]atomic.Uint32, names), latest: make([]atomic.Int32, names)}
}

// assign marks daemon d as the name's holder from now on. It is called
// before the registration is sent, so a resolve that sees the new
// address early still finds it held.
func (h *holders) assign(name, d int) {
	for {
		cur := h.held[name].Load()
		if h.held[name].CompareAndSwap(cur, cur|1<<d) {
			break
		}
	}
	h.latest[name].Store(int32(d))
}

// resolved judges a resolve of name that reached daemon d: an address
// that never held the name is a wrong answer; one that held it but has
// been superseded is stale.
func (h *holders) resolved(name, d int) (stale bool, err error) {
	if h.held[name].Load()&(1<<d) == 0 {
		return false, wrongf("name %d resolved to service daemon %d, which never held it", name, d)
	}
	return int(h.latest[name].Load()) != d, nil
}

// setupDirectory starts three store-backed directory replicas over a
// 3-node pstore, 32 no-op service daemons holding 256 names, and an
// application daemon whose pool's lookup cache is subscribed to the
// directory's invalidations.
func setupDirectory(e *env, logs []*spanLog) (*system, error) {
	s := &system{kinds: []string{"resolve_call", "renew", "register"}}
	bench := s.newBenchRegistry()
	staleResolves := bench.Counter(benchStaleResolves)
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}
	storeAddrs, err := s.startStore(3, "", nil)
	if err != nil {
		return fail(err)
	}
	storePool := s.newPool(e.seed + 100)
	store := s.newStoreClient(storePool, storeAddrs)
	var dirs []*asd.Service
	var dirAddrs []string
	for i := 0; i < dirReplicas; i++ {
		svc := asd.New(asd.Config{
			Daemon: daemon.Config{Name: fmt.Sprintf("asd%d", i+1), TraceBufferSpans: traceBufferSpans},
			Store:  store,
		})
		if err := svc.Start(); err != nil {
			return fail(err)
		}
		s.onClose(svc.Stop)
		s.addDaemon(svc.Daemon)
		dirs = append(dirs, svc)
		dirAddrs = append(dirAddrs, svc.Addr())
	}
	if err := asd.SubscribeReplicas(storePool, dirs); err != nil {
		return fail(err)
	}

	svcNames := make([]string, dirServices)
	svcAddrs := make([]string, dirServices)
	index := map[string]int{}
	for i := range svcNames {
		name := fmt.Sprintf("svc%02d", i)
		d := daemon.New(daemon.Config{Name: name, TraceBufferSpans: traceBufferSpans})
		d.Handle(cmdlang.CommandSpec{Name: "hello", Doc: "reply with the daemon's name"},
			func(*daemon.Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				return cmdlang.OK().SetWord("name", name), nil
			})
		if err := d.Start(); err != nil {
			return fail(err)
		}
		s.onClose(d.Stop)
		s.addDaemon(d)
		svcNames[i], svcAddrs[i] = name, d.Addr()
		index[d.Addr()] = i
	}

	names := make([]string, dirNames)
	own := newHolders(dirNames)
	regPool := s.newPool(e.seed + 200)
	register := func(ctx context.Context, pool *daemon.Pool, name, d int) error {
		_, err := pool.CallContext(ctx, dirAddrs[name%dirReplicas], registerCmd(names[name], svcAddrs[d]))
		return err
	}
	for n := range names {
		names[n] = fmt.Sprintf("name%03d", n)
		own.assign(n, n%dirServices)
		if err := register(context.Background(), regPool, n, n%dirServices); err != nil {
			return fail(err)
		}
	}

	app := daemon.New(daemon.Config{Name: "app", TraceBufferSpans: traceBufferSpans})
	resolver := asd.NewClient(app.Pool(), dirAddrs...)
	resolver.HandleInvalidation(app)
	if err := app.Start(); err != nil {
		return fail(err)
	}
	s.onClose(app.Stop)
	s.addDaemon(app)
	if err := resolver.SubscribeInvalidation(app); err != nil {
		return fail(err)
	}

	// Caller A: resolve a zipfian name through the cache, then call the
	// daemon it resolved to.
	zipfA := workload.NewZipfian(e.seed*1000+1, dirNames, 0.99)
	logA := logs[0]
	hello := cmdlang.New("hello")
	s.callers = append(s.callers, func(ctx context.Context) (int, error) {
		n := zipfA.Next()
		rctx, sp := logA.begin(ctx, "asd.Client.ResolveContext")
		addr, err := resolver.ResolveContext(rctx, asd.Query{Name: names[n]})
		sp.end()
		if err != nil {
			return dirResolveCall, err
		}
		d, known := index[addr]
		if !known {
			return dirResolveCall, wrongf("%s resolved to %q, no service daemon's address", names[n], addr)
		}
		stale, err := own.resolved(n, d)
		if err != nil {
			return dirResolveCall, err
		}
		if stale {
			staleResolves.Inc()
		}
		cctx, sp := logA.begin(ctx, "daemon.Pool.Call")
		reply, err := app.Pool().CallContext(cctx, addr, hello)
		sp.end()
		if err != nil {
			return dirResolveCall, err
		}
		if got := reply.Str("name", ""); got != svcNames[d] {
			return dirResolveCall, wrongf("call to %s reached %q, want %s", addr, got, svcNames[d])
		}
		return dirResolveCall, nil
	})

	// Caller B: renew a zipfian lease, or re-register the name onto
	// another daemon, which fires the invalidations.
	zipfB := workload.NewZipfian(e.seed*1000+2, dirNames, 0.99)
	coin := rand.New(rand.NewSource(e.seed*1000 + 3))
	poolB := s.newPool(e.seed + 300)
	logB := logs[1]
	s.callers = append(s.callers, func(ctx context.Context) (int, error) {
		n := zipfB.Next()
		if coin.Float64() < renewFrac {
			ctx, sp := logB.begin(ctx, "daemon.Pool.Call.renew")
			reply, err := poolB.CallContext(ctx, dirAddrs[n%dirReplicas],
				cmdlang.New(daemon.CmdRenew).SetWord("name", names[n]).SetInt("lease", dirLeaseMs))
			sp.end()
			if err != nil {
				return dirRenew, err
			}
			if reply.Int("lease", 0) <= 0 {
				return dirRenew, wrongf("renewal of %s granted no lease: %s", names[n], reply.String())
			}
			return dirRenew, nil
		}
		d := (int(own.latest[n].Load()) + 1 + coin.Intn(dirServices-1)) % dirServices
		own.assign(n, d)
		ctx, sp := logB.begin(ctx, "daemon.Pool.Call.register")
		err := register(ctx, poolB, n, d)
		sp.end()
		return dirRegister, err
	})

	s.requests = []*cmdlang.CmdLine{
		cmdlang.New(daemon.CmdLookup).SetWord("name", names[0]),
		hello,
		cmdlang.New(daemon.CmdRenew).SetWord("name", names[0]).SetInt("lease", dirLeaseMs),
		registerCmd(names[0], svcAddrs[0]),
	}
	return s, nil
}

func registerCmd(name, addr string) *cmdlang.CmdLine {
	return cmdlang.New(daemon.CmdRegister).
		SetWord("name", name).SetWord("host", "localhost").SetInt("port", 1).
		SetString("addr", addr).SetInt("lease", dirLeaseMs)
}
