package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// benchCubes renders a seeded width-pin × n-vector cube matrix at the
// given X density, as a request carries it.
func benchCubes(width, n int, xProb float64, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	b := make([]byte, width)
	for j := range out {
		for i := range b {
			switch {
			case r.Float64() < xProb:
				b[i] = 'X'
			case r.Intn(2) == 0:
				b[i] = '0'
			default:
				b[i] = '1'
			}
		}
		out[j] = string(b)
	}
	return out
}

// serveBench posts body to /v1/fill on h and fails unless it answers
// 200.
func serveBench(b *testing.B, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fill", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServeFillCold is one /v1/fill miss through the whole
// handler at a fill-cold shape (512 pins × 1000 vectors, 85% X, tool
// order, DP-fill, omit_cubes): decode, parse, digest, engine run and
// encode. Each iteration carries a fresh seed, which only changes the
// cache key, so every request misses.
func BenchmarkServeFillCold(b *testing.B) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	rest, err := json.Marshal(FillRequest{Cubes: benchCubes(512, 1000, 0.85, 1), OmitCubes: true})
	if err != nil {
		b.Fatal(err)
	}
	body := func(seed int) []byte {
		// {"seed":N,<rest of the request>
		return append([]byte(`{"seed":`+strconv.Itoa(seed)+`,`), rest[1:]...)
	}
	serveBench(b, h, body(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBench(b, h, body(i+2))
	}
}

// BenchmarkServeFillHotHit is one /v1/fill cache hit at a fill-hot
// shape (128 pins × 500 vectors, 80% X, full cubes back): decode,
// parse, digest, the cache's deep copy, and the answer appended from
// the entry's bits.
func BenchmarkServeFillHotHit(b *testing.B) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(FillRequest{Cubes: benchCubes(128, 500, 0.8, 2)})
	if err != nil {
		b.Fatal(err)
	}
	serveBench(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBench(b, h, body)
	}
}
