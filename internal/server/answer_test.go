package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
)

// plainFill, plainItem and plainBatch are the answer types without
// their MarshalJSON methods: what encoding/json writes by reflection,
// the oracle the appenders are pinned to.
type plainFill struct {
	Name           string      `json:"name,omitempty"`
	Rows           int         `json:"rows"`
	Width          int         `json:"width"`
	XPercent       float64     `json:"x_percent"`
	Orderer        string      `json:"orderer"`
	Filler         string      `json:"filler"`
	Perm           []int       `json:"perm,omitempty"`
	Cubes          []string    `json:"cubes,omitempty"`
	Peak           int         `json:"peak"`
	Total          int         `json:"total"`
	Profile        []int       `json:"profile,omitempty"`
	DurationMillis float64     `json:"duration_ms"`
	Cached         bool        `json:"cached"`
	Explain        *core.Trace `json:"explain,omitempty"`
}

type plainItem struct {
	Result *plainFill `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

type plainBatch struct {
	Results []plainItem  `json:"results"`
	Failed  int          `json:"failed"`
	Shards  []ShardTrace `json:"shards,omitempty"`
}

// plain converts r to its oracle, the filled bits rendered as the
// cube strings they stand for.
func plain(r *FillResponse) *plainFill {
	if r == nil {
		return nil
	}
	p := plainFill{r.Name, r.Rows, r.Width, r.XPercent, r.Orderer, r.Filler, r.Perm, r.Cubes,
		r.Peak, r.Total, r.Profile, r.DurationMillis, r.Cached, r.Explain}
	if f := r.filled; f != nil && f.N > 0 {
		p.Cubes = make([]string, f.N)
		for j := range p.Cubes {
			b := make([]byte, f.Width)
			for i := range b {
				b[i] = '0' + byte(f.Val[j*f.Words+i/64]>>(i%64)&1)
			}
			p.Cubes[j] = string(b)
		}
	}
	return &p
}

func plainBatchOf(r *BatchResponse) *plainBatch {
	p := &plainBatch{Failed: r.Failed, Shards: r.Shards}
	if r.Results != nil {
		p.Results = make([]plainItem, len(r.Results))
		for k, it := range r.Results {
			p.Results[k] = plainItem{plain(it.Result), it.Error}
		}
	}
	return p
}

// oracleAnswer is what writeJSON wrote before the appenders: an
// Encoder with HTML escaping off.
func oracleAnswer(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkEncode pins both appenders, through writeJSON and through
// json.Marshal, to encoding/json on r and on a batch around it: the
// same bytes, or a failure on both sides.
func checkEncode(t *testing.T, r *FillResponse, errMsg string, shards []ShardTrace) {
	t.Helper()
	batch := &BatchResponse{Results: []BatchItem{{Result: r}, {Error: errMsg}, {Result: r, Error: errMsg}, {}}, Failed: r.Peak, Shards: shards}
	for _, tc := range []struct {
		v, oracle any
	}{
		{r, plain(r)},
		{batch, plainBatchOf(batch)},
		{&BatchResponse{Failed: -1}, &plainBatch{Failed: -1}},
	} {
		want, wantErr := oracleAnswer(tc.oracle)
		rec := newAnswerRecorder()
		writeJSON(rec, http.StatusOK, tc.v)
		if wantErr != nil {
			if rec.body.Len() != 0 {
				t.Fatalf("%T: encoding/json failed (%v), writeJSON wrote %q", tc.v, wantErr, rec.body.String())
			}
			continue
		}
		if got := rec.body.String(); got != string(want) {
			t.Fatalf("%T: writeJSON\n%s\nencoding/json\n%s", tc.v, got, want)
		}
		if cl := rec.header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("%T: Content-Length %s for %d bytes", tc.v, cl, len(want))
		}
		got, err := json.Marshal(tc.v)
		want, wantErr = json.Marshal(tc.oracle)
		if err != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%T: json.Marshal %s (%v), without the method %s (%v)", tc.v, got, err, want, wantErr)
		}
	}
}

// answerRecorder is the smallest http.ResponseWriter: a header map and
// the body, reused across requests without allocating.
type answerRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newAnswerRecorder() *answerRecorder { return &answerRecorder{header: http.Header{}} }

func (r *answerRecorder) Header() http.Header         { return r.header }
func (r *answerRecorder) WriteHeader(status int)      { r.status = status }
func (r *answerRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// filledOf packs 0/1 cube text into the cache entry's form.
func filledOf(tb testing.TB, cubes ...string) *cube.Filled {
	f, err := cube.NewFilled(cube.PackRows(cube.MustParseSet(cubes...)))
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// encodeStrings are the strings the appenders must write exactly as
// encoding/json does: plain, HTML, control bytes and their short
// escapes, non-ASCII, invalid UTF-8, the JS line separators, and each
// at a word boundary.
var encodeStrings = []string{
	"", "DP-fill", "a<b>&c", "q\"uote", "back\\slash", "\b\f\n\r\t\x00\x1f\x7f",
	"größe", "\xff\xfe", "  ", "0123456<", "01234567<", "012345678\xe2\x80\xa8",
}

var encodeFloats = []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
	123456789012345678901234567890, 5e-324, math.MaxFloat64, 0.1, 33.333333333333336, math.NaN(), math.Inf(1), math.Inf(-1)}

// TestEncodeAnswerMatchesJSON runs checkEncode over the string and
// float edge cases, with the cubes as strings and as filled bits, with
// and without the debug-only explain trace and shard breakdown.
func TestEncodeAnswerMatchesJSON(t *testing.T) {
	trace := &core.Trace{Rows: 3, Cols: 2, Peak: 1, TotalNS: 1234}
	shards := []ShardTrace{{Lo: 0, Hi: 2, Worker: "http://w<1>", Attempts: 1, DispatchNS: 5}}
	filled := filledOf(t, strings.Repeat("01", 40), strings.Repeat("10", 40), strings.Repeat("1", 80))
	for _, s := range encodeStrings {
		for _, f := range encodeFloats {
			r := &FillResponse{Name: s, Rows: 3, Width: 80, XPercent: f, Orderer: s, Filler: "DP-fill",
				Perm: []int{2, 0, 1}, Cubes: []string{s, "01"}, Peak: 7, Total: -9, Profile: []int{0},
				DurationMillis: f / 3, Cached: f > 1}
			checkEncode(t, r, s, nil)
			r.Cubes, r.filled = nil, filled
			r.Explain = trace
			checkEncode(t, r, s, shards)
		}
	}
	checkEncode(t, &FillResponse{Perm: []int{}, Cubes: []string{}, Profile: []int{}, filled: &cube.Filled{}}, "", []ShardTrace{})
}

// FuzzEncodeAnswer pins the appenders to encoding/json on arbitrary
// FillResponse and BatchResponse values.
func FuzzEncodeAnswer(f *testing.F) {
	f.Add("n", "Tool", 3, 80, 12.5, 0.25, []byte{1, 2, 3}, false, true)
	f.Add("<&>", " ", -1, 0, 1e21, 1e-7, []byte{}, true, false)
	f.Add("\xff", "x\x00y", 1<<40, -7, -0.0, 5e-324, []byte{0xff, 0, 0x80, 7, 9, 200, 3, 1, 1, 4}, true, true)
	f.Fuzz(func(t *testing.T, name, str string, a, b int, xp, dur float64, list []byte, bits, debugged bool) {
		ints := make([]int, len(list))
		for k, x := range list {
			ints[k] = int(int8(x)) * a
		}
		r := &FillResponse{Name: name, Rows: a, Width: b, XPercent: xp, Orderer: str, Filler: name + str,
			Perm: ints, Cubes: strings.Split(str, ","), Peak: a - b, Total: b, Profile: ints[len(ints)/2:],
			DurationMillis: dur, Cached: bits}
		if bits {
			// The list's bits as cubes of width len(list)%70+1.
			width := len(list)%70 + 1
			var cubes []string
			for j := 0; j < 1+len(list)/8; j++ {
				c := make([]byte, width)
				for i := range c {
					if k := (j*width + i) % (8*len(list) + 1); k < 8*len(list) {
						c[i] = '0' + list[k/8]>>(k%8)&1
					} else {
						c[i] = '1'
					}
				}
				cubes = append(cubes, string(c))
			}
			r.Cubes, r.filled = nil, filledOf(t, cubes...)
		}
		var shards []ShardTrace
		if debugged {
			r.Explain = &core.Trace{Rows: a, Cols: b, TotalNS: int64(a) * int64(b)}
			shards = []ShardTrace{{Lo: a, Hi: b, Worker: str}}
		}
		checkEncode(t, r, name, shards)
	})
}

// answerSeeds are bodies on both sides of the answer scanner's subset.
var answerSeeds = []string{
	`{"rows":2,"width":2,"x_percent":50,"orderer":"Tool","filler":"DP-fill","perm":[1,0],"cubes":["01","11"],"peak":1,"total":1,"profile":[1],"duration_ms":0.012,"cached":false}` + "\n",
	`{"name":"n","rows":1,"width":1,"x_percent":0,"orderer":"Tool","filler":"DP-fill","perm":[0],"cubes":["1"],"peak":0,"total":0,"duration_ms":1e-7,"cached":true}`,
	` { "rows" : 1 , "perm" : [ ] , "profile" : [ 3 , -4 ] , "cubes" : [ ] , "x_percent" : -0.5E+3 } `,
	`{"results":[{"result":{"rows":1,"width":1,"x_percent":0,"orderer":"Tool","filler":"DP-fill","peak":0,"total":0,"duration_ms":0,"cached":false}},{"error":"bad"},{}],"failed":1}`,
	`{"results":[],"failed":0}`,
	`{"results":null,"failed":0}`,
	`{"results":[{"result":null}],"failed":0}`,
	`{"failed":1,"shards":[{"lo":0,"hi":1,"attempts":1,"dispatch_ns":3}]}`,
	`{"rows":1,"explain":{"rows":1}}`,
	`{"rows":1,"rows":2}`,
	`{"Rows":1}`,
	`{"rows":1.0}`,
	`{"rows":-0}`,
	`{"rows":1e2}`,
	`{"rows":9223372036854775808}`,
	`{"x_percent":1e400}`,
	`{"x_percent":-}`,
	`{"x_percent":1.}`,
	`{"x_percent":.5}`,
	`{"x_percent":01}`,
	`{"x_percent":1e}`,
	`{"x_percent":"1"}`,
	`{"perm":[1,]}`,
	`{"perm":[1 2]}`,
	`{"perm":[1,2}`,
	`{"perm":[9223372036854775808]}`,
	`{"perm":[1],"perm":[2]}`,
	`{"profile":[null]}`,
	`{"cubes":["01"]}`,
	`{"orderer":"größe"}`,
	`{"unknown":1}`,
	`{"cached":null}`,
	`{"results":[{"error":"a","error":"b"}]}`,
	`{"results":[{"result":{},"x":1}]}`,
	`{}`,
	`null`,
	`[]`,
	``,
	`{"rows":1}x`,
}

// checkScanMatchesJSON: whenever the answer scanner accepts body, as a
// FillResponse or as a BatchResponse, json.Unmarshal accepts it too
// with a DeepEqual value (nil and empty slices told apart), and
// DecodeAnswer always answers what json.Unmarshal does.
func checkScanMatchesJSON(t *testing.T, body []byte) {
	t.Helper()
	for _, mk := range []func() any{
		func() any { return new(FillResponse) },
		func() any { return new(BatchResponse) },
	} {
		want := mk()
		wantErr := json.Unmarshal(body, want)
		if got := mk(); scanAnswer(body, got) {
			if wantErr != nil {
				t.Fatalf("scanner accepted %.200q as %T, encoding/json refused: %v", body, got, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%.200q as %T: scanner %+v, encoding/json %+v", body, got, got, want)
			}
		}
		got := mk()
		if err := DecodeAnswer(body, got); (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%.200q as %T: DecodeAnswer %+v (%v), encoding/json %+v (%v)", body, got, got, err, want, wantErr)
		}
	}
}

func TestScanAnswerMatchesJSON(t *testing.T) {
	for _, body := range answerSeeds {
		checkScanMatchesJSON(t, []byte(body))
	}
}

// TestScannerTakesServedAnswers: what the server writes for a fill and
// a batch — cubes, floats of every form, errors — takes the one-pass
// path, not the fallback, and decodes to what encoding/json reads.
func TestScannerTakesServedAnswers(t *testing.T) {
	filled := filledOf(t, "0110", "1111", "0000")
	for _, f := range encodeFloats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // never answered: the encoder refuses them
		}
		r := &FillResponse{Name: "n", Rows: 3, Width: 4, XPercent: f, Orderer: "Tool", Filler: "DP-fill",
			Perm: []int{2, 0, 1}, Peak: 4, Total: 4, Profile: []int{2, 2}, DurationMillis: f, filled: filled}
		batch := &BatchResponse{Results: []BatchItem{{Result: r}, {Error: "bad job"}}, Failed: 1}
		for _, v := range []any{r, batch} {
			rec := newAnswerRecorder()
			writeJSON(rec, http.StatusOK, v)
			body := rec.body.Bytes()
			if !scanAnswer(body, reflect.New(reflect.TypeOf(v).Elem()).Interface()) {
				t.Fatalf("scanner fell back on %.200q", body)
			}
			checkScanMatchesJSON(t, body)
		}
	}
}

// FuzzScanAnswer pins the answer scanner to encoding/json on arbitrary
// bodies.
func FuzzScanAnswer(f *testing.F) {
	for _, body := range answerSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanMatchesJSON(t, body)
	})
}

// TestServeFillHitAllocations: a /v1/fill cache hit with full cubes
// back allocates a fixed number of times — the request ID and trace,
// the decode's body buffer, string copy and cubes slice, the parse's
// planes, the digest, the cache's copy of the entry — and nothing per
// cube: the answer is written from the entry's bits into a pooled
// buffer. Both bodies fit ReadBody's first buffer, so a cube set of 8
// and one of 480 must allocate alike.
func TestServeFillHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	// A GC cycle can allocate in the runtime's own cleanup and empties
	// the answer pool; with the collector off the count is the
	// request's alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, shape := range []struct{ w, n int }{{128, 480}, {16, 8}} {
		body, err := json.Marshal(FillRequest{Cubes: benchCubes(shape.w, shape.n, 0.8, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if len(body) >= firstRead {
			t.Fatalf("%dx%d: body of %d bytes outgrows ReadBody's first buffer", shape.w, shape.n, len(body))
		}
		rr := newReusableRequest(body)
		w := newAnswerRecorder()
		serve := func() {
			rr.rd.Reset(rr.body)
			rr.req.Body = rr.rc
			w.body.Reset()
			h.ServeHTTP(w, rr.req)
			if w.status != http.StatusOK {
				t.Fatalf("status %d: %s", w.status, w.body.String())
			}
		}
		serve() // the miss that fills the cache
		allocs := testing.AllocsPerRun(5, serve)
		var resp FillResponse
		if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil || !resp.Cached || len(resp.Cubes) != shape.n {
			t.Fatalf("%dx%d: answer %.200s (%v)", shape.w, shape.n, w.body.String(), err)
		}
		if allocs > 39 {
			t.Fatalf("%dx%d: %v allocations per cache hit, want at most 39", shape.w, shape.n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("a cache hit allocates %v times for 480 cubes and %v for 8", counts[0], counts[1])
	}
}
