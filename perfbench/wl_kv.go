package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/pstore"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
	"ace/internal/workload"
)

// kvSpec is one YCSB-style mix over a 3-replica pstore group.
type kvSpec struct {
	name      string
	keys      int
	valueSize int
	readFrac  float64
	// boundedFrac is the share of reads sent as ReadBounded(2s)
	// instead of ReadQuorum.
	boundedFrac float64
	durable     bool
}

// kvRead is YCSB-B in memory. Its 10,000 keys outnumber the 4,096
// freshness leases a client keeps, so bounded reads miss leases and
// the table evicts.
var kvRead = kvSpec{name: "kv-read", keys: 10000, valueSize: 100, readFrac: 0.95, boundedFrac: 0.5}

// kvWriteDurable is YCSB-A on write-ahead-logged replicas. Its 1 KiB
// values travel as 2 KiB hex strings, 20 times E2's message.
var kvWriteDurable = kvSpec{name: "kv-write-durable", keys: 1000, valueSize: 1024, readFrac: 0.5, durable: true}

// Op kinds of the kv workloads.
const (
	kvGet = iota
	kvGetBounded
	kvPut
)

const boundedStaleness = 2 * time.Second

// keyTag is the prefix every stored value starts with: the value names
// its own key, so a reply carrying another key's value is caught.
func keyTag(path string) []byte { return []byte(path + "|") }

// kvValue builds the value caller c writes as its seq-th put of path.
func kvValue(path string, size, c int, seq int64) []byte {
	v := make([]byte, 0, size)
	v = fmt.Appendf(v, "%s|c%d|%d|", path, c, seq)
	for len(v) < size {
		v = append(v, '.')
	}
	return v
}

// versionLog is one caller's view of a key space: the highest
// committed version it has seen, acknowledged to its own writes or
// returned by a quorum read. A quorum read below it is a stale read.
//
// pstore promises linearizability only for committed writes: a quorum
// read may return a rival's write that has reached one replica, and a
// later quorum read that misses that replica may legitimately return
// the version before it. So a read version raises the mark only as far
// as the highest version acknowledged to any caller once the read
// returned; every quorum read that starts later must return at least
// that.
type versionLog struct{ seen []uint64 }

func newVersionLog(keys int) *versionLog { return &versionLog{seen: make([]uint64, keys)} }

// quorumRead checks a quorum read of key that returned version ver;
// committed is the key's highest acknowledged version, loaded after
// the read returned.
func (l *versionLog) quorumRead(key int, ver, committed uint64) error {
	if ver < l.seen[key] {
		return wrongf("quorum read of key %d returned version %d, below version %d this caller already saw", key, ver, l.seen[key])
	}
	l.seen[key] = max(l.seen[key], min(ver, committed))
	return nil
}

// acked checks the version a write of key was acknowledged with: the
// write's quorum version probe saw every version this caller saw, so
// the new one is above them all.
func (l *versionLog) acked(key int, ver uint64) error {
	if ver <= l.seen[key] {
		return wrongf("write of key %d acknowledged version %d, not above version %d this caller already saw", key, ver, l.seen[key])
	}
	l.seen[key] = ver
	return nil
}

// ackedVersions is the highest acknowledged version of every key
// across callers.
type ackedVersions []atomic.Uint64

func (a ackedVersions) raise(key int, ver uint64) {
	for {
		cur := a[key].Load()
		if ver <= cur || a[key].CompareAndSwap(cur, ver) {
			return
		}
	}
}

// sweepCheck judges the final quorum read of key: it must return the
// highest acknowledged version. A higher one can only come from a
// write that failed after reaching some replicas.
func sweepCheck(key int, got, acked uint64, unackedWrites bool) error {
	if got < acked {
		return wrongf("final sweep: key %d at version %d, below acknowledged version %d (a lost write)", key, got, acked)
	}
	if got > acked && !unackedWrites {
		return wrongf("final sweep: key %d at version %d, above any acknowledged version %d", key, got, acked)
	}
	return nil
}

// countingFS is storage.OS with every byte written to a WAL segment
// counted, so write amplification is measured where the engine writes.
type countingFS struct {
	storage.FS
	wal *telemetry.Counter
}

type countingFile struct {
	storage.File
	n *telemetry.Counter
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func (c countingFS) count(name string, f storage.File, err error) (storage.File, error) {
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return countingFile{f, c.wal}, nil
}

func (c countingFS) Create(name string) (storage.File, error) {
	f, err := c.FS.Create(name)
	return c.count(name, f, err)
}

func (c countingFS) OpenAppend(name string) (storage.File, error) {
	f, err := c.FS.OpenAppend(name)
	return c.count(name, f, err)
}

// Benchmark-side counters, kept in the system's own registry so they
// difference over a phase like the program's.
const (
	benchWALBytes      = "bench.fs.wal_bytes"
	benchStaleResolves = "bench.asd.stale_resolves"
)

// setupKV starts the replica group, preloads every key and builds the
// two callers, which share one pstore.Client.
func setupKV(spec kvSpec) func(*env, []*spanLog) (*system, error) {
	return func(e *env, logs []*spanLog) (*system, error) {
		s := &system{kinds: []string{"get", "get_bounded", "put"}}
		bench := s.newBenchRegistry()
		var dir string
		var fs storage.FS
		if spec.durable {
			dir = e.scratchDir(spec.name)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			s.onClose(func() { os.RemoveAll(dir) })
			fs = countingFS{FS: storage.OS, wal: bench.Counter(benchWALBytes)}
		}
		addrs, err := s.startStore(3, dir, fs)
		if err != nil {
			s.close()
			return nil, err
		}
		client := s.newStoreClient(s.newPool(e.seed), addrs)

		paths := make([]string, spec.keys)
		for k := range paths {
			paths[k] = workload.Path("/kv", k)
		}
		acked := make(ackedVersions, spec.keys)
		if err := preload(client, paths, spec.valueSize, acked); err != nil {
			s.close()
			return nil, err
		}
		var failedPuts atomic.Bool
		for c := 0; c < callers; c++ {
			s.callers = append(s.callers, kvCaller(spec, e.seed, c, client, paths, acked, &failedPuts, logs[c]))
		}
		s.requests = kvRequests(spec, e.seed, paths)
		s.check = func() error { return sweep(client, paths, acked, failedPuts.Load()) }
		if spec.durable {
			s.valueSize = spec.valueSize
			s.extra = func(d time.Duration, _ *phaseResult, out map[string]float64) error {
				p50, err := appendP50(e.scratchDir("append"), paths, spec.valueSize, d)
				out["storage.append_p50_us"] = us(p50)
				return err
			}
		}
		return s, nil
	}
}

// preload writes every key once, eight writers at a time.
func preload(client *pstore.Client, paths []string, size int, acked ackedVersions) error {
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(paths); k += writers {
				ver, err := client.Put(paths[k], kvValue(paths[k], size, -1, 0))
				if err != nil {
					errs[w] = fmt.Errorf("preload %s: %w", paths[k], err)
					return
				}
				acked.raise(k, ver)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kvCaller is one closed-loop caller: a zipfian key stream with the
// spec's read/update mix; a seeded coin splits reads between quorum
// and bounded.
func kvCaller(spec kvSpec, seed int64, c int, client *pstore.Client, paths []string, acked ackedVersions, failedPuts *atomic.Bool, log *spanLog) opFunc {
	gen := workload.NewGenerator(seed*1000+int64(c), spec.keys, 0.99, spec.readFrac)
	coin := rand.New(rand.NewSource(seed*1000 + int64(c) + 500))
	seen := newVersionLog(spec.keys)
	var seq int64
	return func(ctx context.Context) (int, error) {
		op := gen.Next()
		path := paths[op.Key]
		if op.Kind == workload.OpGet {
			kind, mode, name := kvGet, pstore.ReadQuorum(), "pstore.Client.GetModeContext.quorum"
			if spec.boundedFrac > 0 && coin.Float64() < spec.boundedFrac {
				kind, mode, name = kvGetBounded, pstore.ReadBounded(boundedStaleness), "pstore.Client.GetModeContext.bounded"
			}
			ctx, sp := log.begin(ctx, name)
			val, ver, ok, err := client.GetModeContext(ctx, path, mode)
			sp.end()
			if err != nil {
				return kind, err
			}
			if !ok {
				return kind, wrongf("%s read of %s found nothing; every key is preloaded and never deleted", mode, path)
			}
			if !bytes.HasPrefix(val, keyTag(path)) {
				return kind, wrongf("%s read of %s returned a value naming another key: %.40q", mode, path, val)
			}
			if kind == kvGet {
				return kind, seen.quorumRead(op.Key, ver, acked[op.Key].Load())
			}
			return kind, nil
		}
		seq++
		ctx, sp := log.begin(ctx, "pstore.Client.PutContext")
		ver, err := client.PutContext(ctx, path, kvValue(path, spec.valueSize, c, seq))
		sp.end()
		if err != nil {
			failedPuts.Store(true)
			return kvPut, err
		}
		acked.raise(op.Key, ver)
		return kvPut, seen.acked(op.Key, ver)
	}
}

// kvRequests renders the commands caller 0's first ops send to a
// replica: psget for reads, psfetch and psput for writes.
func kvRequests(spec kvSpec, seed int64, paths []string) []*cmdlang.CmdLine {
	gen := workload.NewGenerator(seed*1000, spec.keys, 0.99, spec.readFrac)
	var out []*cmdlang.CmdLine
	for i := 0; i < 256; i++ {
		op := gen.Next()
		path := paths[op.Key]
		if op.Kind == workload.OpGet {
			out = append(out, cmdlang.New("psget").SetString("path", path))
			continue
		}
		out = append(out,
			cmdlang.New("psfetch").SetString("path", path),
			cmdlang.New("psput").SetString("path", path).
				SetString("value", hex.EncodeToString(kvValue(path, spec.valueSize, 0, int64(i)))).
				SetInt("version", int64(i+2)))
	}
	return out
}

// sweep quorum-reads every key once the callers have stopped and
// checks each against its highest acknowledged version.
func sweep(client *pstore.Client, paths []string, acked ackedVersions, unackedWrites bool) error {
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(paths); k += callers {
				val, ver, ok, err := client.Get(paths[k])
				switch {
				case err != nil:
					errs[w] = fmt.Errorf("final sweep of %s: %w", paths[k], err)
				case !ok:
					errs[w] = wrongf("final sweep: %s holds nothing", paths[k])
				case !bytes.HasPrefix(val, keyTag(paths[k])):
					errs[w] = wrongf("final sweep: %s holds a value naming another key: %.40q", paths[k], val)
				default:
					errs[w] = sweepCheck(k, ver, acked[k].Load(), unackedWrites)
				}
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// appendP50 times storage.Engine.Append of records shaped like the
// workload's, at the workload's concurrency, on a fresh engine.
func appendP50(dir string, paths []string, size int, d time.Duration) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	eng, _, _, err := storage.Open(filepath.Join(dir, "engine"), storage.Options{})
	if err != nil {
		return 0, err
	}
	var ops []opFunc
	var logs []*spanLog
	for c := 0; c < callers; c++ {
		i := 0
		ops = append(ops, func(context.Context) (int, error) {
			i++
			path := paths[(i*callers+c)%len(paths)]
			return 0, eng.Append(storage.Record{Path: path, Value: kvValue(path, size, c, int64(i)), Version: uint64(i)})
		})
		logs = append(logs, &spanLog{})
	}
	p, err := runPhase(ops, logs, false, d, nil, []string{"append"})
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err == nil && p.failed > 0 {
		err = fmt.Errorf("storage append: %w", p.firstErr)
	}
	if err != nil {
		return 0, err
	}
	return percentile(latencies(p.samples, 0), 50), nil
}
