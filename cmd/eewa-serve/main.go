// Command eewa-serve runs the live runtime as a long-running,
// backpressured job-submission service (internal/serve): HTTP/JSON
// job submissions are batched into iterations and executed under any
// of the four scheduling policies, with per-tenant bounded admission
// queues, per-request deadlines, and graceful drain on SIGTERM.
//
// Usage:
//
//	eewa-serve -addr :8080 -workers 8 -policy eewa
//	eewa-serve -policy eewa -profile-in profile.json   # §IV-D offline mode
//	eewa-serve -shards 4 -routing class                # 4-shard cluster router
//	eewa-serve -shards 2 -profile-in a.json,b.json     # per-shard profiles
//	eewa-serve -shards 4 -ladder-split tiered          # heterogeneous ladders
//	eewa-serve -demo                                   # self-driving burst, then drain
//
// Submit work:
//
//	curl -s localhost:8080/v1/jobs -d '{"func":"sha1","count":8,"size_bytes":65536}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/shards
//	curl -s localhost:8080/metrics | grep eewa_serve
//
// On SIGTERM (or SIGINT) the server stops admitting (503), finishes
// every queued and in-flight batch, optionally writes a final metrics
// snapshot, and exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-serve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 8, "runtime worker goroutines")
	policyName := flag.String("policy", "eewa", "scheduling policy: cilk|cilk-d|wats|eewa")
	profileIn := flag.String("profile-in", "", "offline workload profile (JSON, eewa only); EEWA configures before batch 1; a comma-separated list gives each shard its own (empty entry = none)")
	shards := flag.Int("shards", 1, "runtime shards behind the router (each gets -workers cores)")
	routing := flag.String("routing", serve.RouteClass, "shard placement policy: class|rr|least")
	ladderSplit := flag.String("ladder-split", "uniform", "shard frequency ladders: uniform (all full) or tiered (shard i drops the top i rungs)")
	seed := flag.Uint64("seed", 1, "victim-selection seed (shard i>0 uses a split stream)")
	maxBatch := flag.Int("max-batch", 64, "max tasks per iteration")
	flushMS := flag.Int("flush-ms", 25, "longest an admitted job waits for a batch, in milliseconds: a ceiling, not a cadence (an idle shard runs a job at once)")
	queueDepth := flag.Int("queue-depth", 128, "per-tenant queued-task bound, per shard")
	maxInflight := flag.Int("max-inflight", 512, "per-shard in-flight task budget (queued + running tasks)")
	metricsOut := flag.String("metrics-out", "", "write a final Prometheus metrics snapshot here on drain")
	captureOut := flag.String("capture-out", "", "record job submissions and write them as a replayable traffic trace here on drain")
	drainSecs := flag.Int("drain-timeout", 60, "seconds to wait for the drain to finish")
	demo := flag.Bool("demo", false, "drive a burst of submissions against the server, print the outcome, drain and exit")
	mutexFrac := flag.Int("mutexprofile", 0, "sample 1/N mutex contention events into /debug/pprof/mutex (0 = off)")
	blockRate := flag.Int("blockprofile", 0, "sample blocking events ≥ N ns into /debug/pprof/block (0 = off)")
	flag.Parse()

	// Contention profiling: off by default (sampling costs the hot
	// path); the pprof endpoints are already mounted via the obs
	// handler, these flags just turn the samplers on.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	known := false
	for _, id := range policy.IDs() {
		if *policyName == id {
			known = true
			break
		}
	}
	if !known {
		log.Fatalf("unknown policy %q (want one of %v)", *policyName, policy.IDs())
	}

	// Topology flags fail loudly up front, like a bad policy name.
	if *shards <= 0 {
		log.Fatalf("-shards must be positive, got %d", *shards)
	}
	cfg := serve.Config{
		Workers:     *workers,
		Machine:     machine.Opteron16(),
		Policy:      *policyName,
		Seed:        *seed,
		Shards:      *shards,
		Routing:     *routing,
		MaxBatch:    *maxBatch,
		FlushEvery:  time.Duration(*flushMS) * time.Millisecond,
		QueueDepth:  *queueDepth,
		MaxInFlight: *maxInflight,
	}
	switch *ladderSplit {
	case "uniform":
	case "tiered":
		cfg.ShardMachines = make([]machine.Config, *shards)
		for i := range cfg.ShardMachines {
			cfg.ShardMachines[i] = machine.Tiered(cfg.Machine, i)
		}
	default:
		log.Fatalf("unknown ladder split %q (want uniform or tiered)", *ladderSplit)
	}
	if *profileIn != "" {
		paths := strings.Split(*profileIn, ",")
		if len(paths) == 1 {
			cfg.Offline = loadProfile(paths[0])
		} else {
			if len(paths) != *shards {
				log.Fatalf("%d -profile-in entries for %d shards", len(paths), *shards)
			}
			cfg.ShardOfflines = make([]*profile.Snapshot, *shards)
			for i, p := range paths {
				if p = strings.TrimSpace(p); p != "" {
					cfg.ShardOfflines[i] = loadProfile(p)
				}
			}
		}
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	handler := srv.Handler()
	var capture *traffic.Capture
	if *captureOut != "" {
		capture = traffic.NewCapture(handler)
		handler = capture
	}
	hs := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	if *demo {
		hs.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	if *shards > 1 {
		log.Printf("policy %s, %d shards × %d workers, %s routing, serving on %s", *policyName, *shards, *workers, *routing, base)
	} else {
		log.Printf("policy %s, %d workers, serving on %s", *policyName, *workers, base)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *demo {
		runDemo(base)
		stop() // fall through to the drain path, same as SIGTERM
	} else {
		<-ctx.Done()
	}

	log.Printf("draining: admission closed, flushing queued batches…")
	dctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Fatalf("drain did not finish: %v", err)
	}
	_ = hs.Close()
	st := srv.Stats()
	log.Printf("drained: %d jobs admitted, %d completed, %d rejected, %d timed out, %d batches, %d tasks",
		st.Admitted, st.Completed, st.Rejected, st.Timeouts, st.Batches, st.Tasks)
	if sum := srv.LatencySummary(); sum.Jobs > 0 {
		log.Printf("latency over %d jobs: e2e p50 %.1fms p95 %.1fms p99 %.1fms (mean %.1fms), queue wait p50 %.1fms p95 %.1fms p99 %.1fms",
			sum.Jobs, sum.E2EP50*1e3, sum.E2EP95*1e3, sum.E2EP99*1e3, sum.E2EMean*1e3,
			sum.QueueP50*1e3, sum.QueueP95*1e3, sum.QueueP99*1e3)
	}
	if srv.Shards() > 1 {
		roll := srv.EnergyRollup()
		log.Printf("cluster energy: %.1f J total (%.1f attributed, %.1f overhead) across %d shards",
			roll.TotalJ, roll.AttributedJ, roll.OverheadJ, srv.Shards())
	}
	if capture != nil {
		tr := capture.Trace("eewa-serve-capture")
		var buf bytes.Buffer
		if err := traffic.Encode(&buf, tr); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*captureOut, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("captured %d submissions over %.1fs → %s (replay with eewa-traffic)", len(tr.Events), tr.DurationS, *captureOut)
	}
	if *metricsOut != "" {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics written to %s", *metricsOut)
	}
}

func loadProfile(path string) *profile.Snapshot {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	snap, err := profile.DecodeSnapshot(f)
	if err != nil {
		log.Fatal(err)
	}
	return snap
}

// runDemo fires a burst big enough to overflow the default admission
// bounds, showing the 429/Retry-After backpressure path alongside
// successful completions.
func runDemo(base string) {
	const burst = 96
	var ok, rejected, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{
				"tenant": fmt.Sprintf("t%d", i%4), "func": "sha1",
				"count": 8, "size_bytes": 32 << 10, "seed": i,
			})
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case 200:
				ok.Add(1)
			case 429:
				rejected.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	log.Printf("demo burst: %d jobs → %d completed, %d backpressured (429), %d other",
		burst, ok.Load(), rejected.Load(), other.Load())
}
