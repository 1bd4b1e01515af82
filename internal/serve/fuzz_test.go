package serve

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
)

// Differential fuzz targets for the hand-written codec (DESIGN.md §12):
// each feeds the fast path and the stdlib reference the same input and
// fails on any difference in acceptance, value, error text or bytes.
// `go test` runs the seed corpora — the tables of ingest_test.go — as
// plain tests; `make check-long` fuzzes each target for 10 s.

// fuzzServer is a server for decode-only fuzzing: manual flush, so no
// batcher goroutine runs beside the fuzz workers.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	s, err := New(Config{Workers: 1, Policy: "cilk", ManualFlush: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Drain(context.Background()) }) // nothing is ever queued
	return s
}

// seed adds the table's bodies to the corpus, less the long ones, which
// stay in the table tests: the fuzzer minimizes every input that finds
// new coverage a byte at a time, and would spend its ten seconds on one
// 28 KiB body.
func seed(f *testing.F, bodies []string) {
	for _, body := range bodies {
		if len(body) <= 1024 {
			f.Add([]byte(body))
		}
	}
}

func FuzzDecodeJob(f *testing.F) {
	s := fuzzServer(f)
	seed(f, jobDecodeCases())
	f.Fuzz(func(t *testing.T, body []byte) {
		if d := diffDecodeJob(s, body); d != "" {
			t.Errorf("%q: %s", caseName(string(body)), d)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	s := fuzzServer(f)
	seed(f, batchDecodeCases())
	f.Fuzz(func(t *testing.T, body []byte) {
		if d := diffDecodeBatch(s, body); d != "" {
			t.Errorf("%q: %s", caseName(string(body)), d)
		}
	})
}

// FuzzAppendBatchResponse builds a response of every item shape from the
// fuzzer's strings, floats and integers and requires the batch writer's
// bytes — fast path or fallback — to be the legacy encoder's.
func FuzzAppendBatchResponse(f *testing.F) {
	f.Add("acme", "deadline expired mid-batch", 0.75, 2.5e-7, 200, 2, 0, uint8(3))
	f.Add("a<b>", `tenant "acme" queue full`, 1e21, math.Copysign(0, -1), 429, -1, -1, uint8(0))
	f.Add("héllo", "", 5e-324, 1e-6, 0, 0, 7, uint8(1))
	// The float memo's edges: equal floats with different bytes, and
	// neighbours across the 'f'/'e' switches.
	f.Add("acme", "", 0.0, math.Copysign(0, -1), 200, 1, -1, uint8(7))
	f.Add("acme", "x", 1e-6, belowMicro, 200, 0, -1, uint8(6))
	f.Add("acme", "x", below1e21, 1e21, 504, 0, 2, uint8(5))
	for _, c := range batchEncodeCases() {
		for _, it := range c.items {
			if it.Result != nil {
				f.Add(it.Result.Tenant, it.Error, it.Result.QueueMS, it.Result.EnergyAttrJ, it.Status, it.RetryAfter, -1, uint8(2))
			}
		}
	}
	f.Fuzz(func(t *testing.T, tenant, msg string, f1, f2 float64, status, retry, shard int, n uint8) {
		res := &JobResult{Job: uint64(status), Tenant: tenant, Func: "sha1", Tasks: retry, TasksRun: int(n),
			Batch: shard, QueueMS: f1, BatchMS: f2, EnergyJ: f1 * f2, EnergyAttrJ: -f2, Steals: -retry, Policy: msg}
		if shard >= 0 {
			res.Shard = &shard
		}
		// swapped puts each float where res has the other one, so items
		// alternate values field by field as well as repeat them.
		swapped := *res
		swapped.QueueMS, swapped.BatchMS, swapped.EnergyJ, swapped.EnergyAttrJ = f2, f1, -f2, f1*f2
		shapes := []BatchItem{
			{Status: status, Result: res},
			{Status: status, Error: msg, RetryAfter: retry},
			{Status: status, Error: msg, Result: res},
			{Status: status, Result: &swapped},
			{Status: status},
		}
		items := make([]BatchItem, 0, n%8)
		for i := 0; i < cap(items); i++ {
			items = append(items, shapes[(i+int(n))%len(shapes)])
		}
		got := httptest.NewRecorder()
		writeBatch(got, 200, items)
		checkSame(t, "batch response", got, refEncode(200, BatchResponse{Jobs: items}))
	})
}
