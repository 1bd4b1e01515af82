// Command eewa-traffic is the traffic harness: it generates open-loop
// arrival traces from cohort specs, replays traces bit-exactly through
// the simulator or the live serve pipeline, and captures live traffic
// into replayable traces.
//
// Usage:
//
//	eewa-traffic generate -golden -out trace.json
//	eewa-traffic generate -spec spec.json -out trace.json
//	eewa-traffic replay -in trace.json -engine serve -check
//	eewa-traffic replay -in trace.json -engine sim -cores 16 -out log.json
//	eewa-traffic replay -in trace.json -engine wall -target http://localhost:8080 -speed 2
//	eewa-traffic capture -addr :8081 -backend http://localhost:8080 -out captured.json
//
// generate is a pure function of the spec: the same spec and seed
// always produce byte-identical traces, and per-cohort streams are
// independent (adding a tenant never perturbs another's arrivals).
//
// replay -engine sim is fully deterministic (outcomes, energy,
// makespan); -engine serve runs the real admission/batching pipeline
// under a virtual clock, making per-tenant outcome counts and batch
// composition trace-pure (-check replays twice and verifies the
// canonical logs match); -engine wall drives a live server open-loop
// in wall time through a reverse proxy.
//
// capture is a recording reverse proxy: it forwards everything to
// -backend and writes the observed job submissions as a validated
// trace on SIGTERM.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-traffic: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "generate":
		cmdGenerate(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "capture":
		cmdCapture(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: eewa-traffic {generate|replay|capture} [flags]")
	os.Exit(2)
}

// decodeStrict parses JSON rejecting unknown fields, so a typoed spec
// key fails loudly instead of silently falling back to defaults.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeOut(path string, data []byte) {
	if path == "-" || path == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

func cmdGenerate(args []string) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	specPath := fs.String("spec", "", "cohort spec (JSON traffic.Spec)")
	golden := fs.Bool("golden", false, "use the built-in golden spec instead of -spec")
	out := fs.String("out", "-", "trace output path (- for stdout)")
	_ = fs.Parse(args)

	var spec traffic.Spec
	switch {
	case *golden:
		spec = traffic.GoldenSpec()
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := decodeStrict(data, &spec); err != nil {
			log.Fatalf("parsing spec: %v", err)
		}
	default:
		log.Fatal("generate needs -spec or -golden")
	}

	tr, err := traffic.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := traffic.Encode(&buf, tr); err != nil {
		log.Fatal(err)
	}
	writeOut(*out, buf.Bytes())
	log.Printf("trace %q: %d events, %d tasks over %.1fs", tr.Name, len(tr.Events), tr.TotalTasks(), tr.DurationS)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "trace input path")
	engine := fs.String("engine", "serve", "replay engine: serve|sim|wall")
	out := fs.String("out", "-", "outcome-log output path (- for stdout; serve/sim only)")
	check := fs.Bool("check", false, "replay twice and fail unless the canonical logs are byte-identical (serve/sim)")
	workers := fs.Int("workers", 4, "serve: runtime worker goroutines per shard")
	shards := fs.Int("shards", 1, "serve: runtime shards behind the router")
	policyName := fs.String("policy", "eewa", "serve/sim: scheduling policy")
	seed := fs.Uint64("seed", 7, "serve/sim: victim-selection seed")
	maxBatch := fs.Int("max-batch", 64, "serve/sim: max tasks per batch")
	queueDepth := fs.Int("queue-depth", 128, "serve: per-tenant queued-task bound")
	maxInflight := fs.Int("max-inflight", 512, "serve: per-shard in-flight task budget")
	cores := fs.Int("cores", 8, "sim: simulated cores")
	target := fs.String("target", "", "wall: base URL of a live server to drive")
	speed := fs.Float64("speed", 1, "wall: time compression factor (2 = replay twice as fast)")
	wallBatch := fs.Int("wall-batch", 1, "wall: coalesce N consecutive events per request via /v1/jobs:batch")
	_ = fs.Parse(args)

	if *in == "" {
		log.Fatal("replay needs -in")
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := traffic.Decode(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// replay runs the chosen deterministic engine once and logs its
	// summary line.
	var replay func() (*traffic.Log, error)
	switch *engine {
	case "serve":
		cfg := serve.Config{
			Workers:     *workers,
			Machine:     machine.Opteron16(),
			Policy:      *policyName,
			Seed:        *seed,
			Shards:      *shards,
			MaxBatch:    *maxBatch,
			QueueDepth:  *queueDepth,
			MaxInFlight: *maxInflight,
		}
		replay = func() (*traffic.Log, error) {
			// A fresh registry per run: replays must not share mutable state.
			cfg.Obs = obs.NewRegistry()
			lg, err := traffic.ReplayServe(tr, traffic.ServeReplay{Config: cfg})
			if err == nil {
				log.Printf("serve replay: %d events → %d batches, measured %.1f J in %.2fs wall",
					lg.Events, lg.Batches, lg.MeasuredEnergyJ, lg.MeasuredWallS)
			}
			return lg, err
		}
	case "sim":
		replay = func() (*traffic.Log, error) {
			lg, _, err := traffic.ReplaySim(tr, traffic.SimReplay{Cores: *cores, Policy: *policyName, Seed: *seed, MaxBatch: *maxBatch})
			if err == nil {
				log.Printf("sim replay: %d events → %d batches, %.3f J modeled, makespan %.3fs",
					lg.Events, lg.Batches, lg.EnergyJ, lg.MakespanS)
			}
			return lg, err
		}
	case "wall":
		if *target == "" {
			log.Fatal("wall replay needs -target")
		}
		u, err := url.Parse(*target)
		if err != nil {
			log.Fatal(err)
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()
		st, err := traffic.ReplayWall(ctx, proxy, tr, *speed, *wallBatch)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wall replay: %d submitted → %d ok, %d backpressured (429), %d dropped (504), %d other; %d late fires; %.2fs wall",
			st.Submitted, st.OK, st.Rejected, st.Dropped, st.Other, st.Late, st.WallS)
		return
	default:
		log.Fatalf("unknown engine %q (want serve, sim or wall)", *engine)
	}
	run := func() []byte {
		lg, err := replay()
		if err != nil {
			log.Fatal(err)
		}
		c, err := lg.Canonical()
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	c := run()
	if *check {
		if !bytes.Equal(c, run()) {
			log.Fatalf("determinism check FAILED: two %s replays produced different canonical logs", *engine)
		}
		log.Printf("determinism check passed: canonical logs byte-identical across two replays")
	}
	writeOut(*out, c)
}

func cmdCapture(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	addr := fs.String("addr", ":8081", "listen address for the recording proxy")
	backend := fs.String("backend", "http://localhost:8080", "base URL of the server to forward to")
	out := fs.String("out", "captured.json", "trace output path on shutdown")
	name := fs.String("name", "captured", "name recorded in the trace")
	_ = fs.Parse(args)

	u, err := url.Parse(*backend)
	if err != nil {
		log.Fatal(err)
	}
	cap := traffic.NewCapture(httputil.NewSingleHostReverseProxy(u))
	hs := &http.Server{Addr: *addr, Handler: cap, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("capturing %s → %s (SIGTERM to write %s)", *addr, *backend, *out)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	_ = hs.Close()

	tr := cap.Trace(*name)
	var buf bytes.Buffer
	if err := traffic.Encode(&buf, tr); err != nil {
		log.Fatal(err)
	}
	writeOut(*out, buf.Bytes())
	log.Printf("captured %d events over %.1fs → %s", len(tr.Events), tr.DurationS, *out)
}
