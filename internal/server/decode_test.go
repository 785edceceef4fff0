package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"testing"
)

// reusableRequest is a POST whose body can be rewound without
// allocating, so allocation counts and benchmarks see DecodeJSON alone.
type reusableRequest struct {
	req  *http.Request
	rd   *bytes.Reader
	rc   io.ReadCloser
	body []byte
	rec  *httptest.ResponseRecorder
}

func newReusableRequest(body []byte) *reusableRequest {
	rd := bytes.NewReader(body)
	return &reusableRequest{
		req:  httptest.NewRequest(http.MethodPost, "/v1/fill", rd),
		rd:   rd,
		rc:   io.NopCloser(rd),
		body: body,
		rec:  httptest.NewRecorder(),
	}
}

// decode rewinds the body and runs DecodeJSON on it.
func (r *reusableRequest) decode(v any) bool {
	r.rd.Reset(r.body)
	r.req.Body = r.rc
	r.req.ContentLength = int64(len(r.body))
	return DecodeJSON(r.rec, r.req, 8<<20, v)
}

// fillColdBody is a fill-cold-shaped /v1/fill body: 512 pins × 1460
// vectors at 85% X (~734 KiB), xstat order, DP-fill, omit_cubes.
func fillColdBody(tb testing.TB) []byte {
	body, err := json.Marshal(FillRequest{Cubes: benchCubes(512, 1460, 0.85, 1), Orderer: "xstat", Filler: "dp", OmitCubes: true})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// coordBatchBody is a coord-batch-shaped /v1/batch body: 32 jobs of
// 64–192 pins × 100–400 vectors at 75–90% X, tool and i orders (3:1),
// DP-fill, omit_cubes.
func coordBatchBody(tb testing.TB) []byte {
	req := BatchRequest{Jobs: make([]FillRequest, 32)}
	for k := range req.Jobs {
		ord := "tool"
		if k%4 == 3 {
			ord = "i"
		}
		req.Jobs[k] = FillRequest{
			Cubes:     benchCubes(64+4*k, 100+9*k, 0.75+0.15*float64(k)/31, int64(k)),
			Orderer:   ord,
			Filler:    "dp",
			OmitCubes: true,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkDecodeMatchesJSON pins the scanner to encoding/json on one body,
// as a FillRequest and as a BatchRequest: whenever the scanner accepts
// the body, the strict json decoder accepts it too with a DeepEqual
// value (nil and empty slices told apart), and DecodeJSON's answer —
// value, or status and error body — is exactly the strict decoder's.
func checkDecodeMatchesJSON(t *testing.T, body []byte) {
	t.Helper()
	for _, mk := range []func() any{
		func() any { return new(FillRequest) },
		func() any { return new(BatchRequest) },
	} {
		want := mk()
		wantErr := decodeStrict(bytes.NewReader(body), want)
		if got := mk(); scanRequest(body, got) {
			if wantErr != nil {
				t.Fatalf("scanner accepted %.200q as %T, encoding/json refused: %v", body, got, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%.200q as %T: scanner %+v, encoding/json %+v", body, got, got, want)
			}
		}
		got := mk()
		rec := httptest.NewRecorder()
		ok := DecodeJSON(rec, httptest.NewRequest(http.MethodPost, "/v1/fill", bytes.NewReader(body)), 8<<20, got)
		if ok != (wantErr == nil) {
			t.Fatalf("%.200q as %T: DecodeJSON ok=%v, encoding/json err %v", body, got, ok, wantErr)
		}
		if ok {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%.200q as %T: DecodeJSON %+v, encoding/json %+v", body, got, got, want)
			}
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest ||
			e.Error != "malformed JSON: "+wantErr.Error() {
			t.Fatalf("%.200q as %T: answered %d %s, want 400 malformed JSON: %v", body, got, rec.Code, rec.Body.String(), wantErr)
		}
	}
}

// decodeSeeds are bodies on both sides of the scanner's subset. The
// checked-in corpus under testdata/fuzz/FuzzDecodeRequest holds the
// same families at fuller size.
var decodeSeeds = []string{
	`{"cubes":["0X1","1X0"],"orderer":"xstat","omit_cubes":true}`,
	`{"seed":7,"cubes":["0X1","1X0"],"filler":"dp","priority":-3,"timeout_ms":0,"debug":false}`,
	` { "name" : "n" , "cubes" : [ "01" , "X1" ] } ` + "\n\t\r",
	`{"cubes":[]}`,
	`{"cubes":[""]}`,
	`{}`,
	`{"jobs":[{"cubes":["0X"]},{"cubes":["1X"],"omit_cubes":true}],"debug":true}`,
	`{"jobs":[]}`,
	`{"jobs":[{}]}`,
	`{"cubes":["0X"]}`,
	`{"name":"größe","cubes":["01"]}`,
	`{"Cubes":["01"]}`,
	`{"cubes":["01"],"cubes":["10"]}`,
	`{"seed":1,"seed":2}`,
	`{"jobs":[{"name":"a"}],"jobs":[{"seed":1}]}`, // encoding/json merges the second into the first
	`null`,
	`{"cubes":null}`,
	`{"jobs":null}`,
	`{"jobs":[null]}`,
	`{"seed":-0}`,
	`{"seed":-1}`,
	`{"seed":1e3}`,
	`{"seed":1.0}`,
	`{"seed":01}`,
	`{"seed":9223372036854775807}`,
	`{"seed":9223372036854775808}`,
	`{"seed":-9223372036854775808}`,
	`{"seed":-9223372036854775809}`,
	`{"priority":99999999999999999999}`,
	`{"omit_cubes":true,"debug":false}`,
	`{"omit_cubes":"true"}`,
	`{"omit_cubes":tru}`,
	`{"stil":"STIL 1.0;\nPattern p { }"}`,
	`{"cubes":["0<1>&"]}`,
	`{"cubes":["0X1"]`,
	`{"cubes":["0X1`,
	`{"cubes":["0X1"]} x`,
	`{"cubes":["0X1"]}{}`,
	`{"cubes":["0X1"],}`,
	`{"cubes":["0X1",]}`,
	`{,"cubes":["0X1"]}`,
	`{"window":4}`,
	`{"jobs":[{"cubes":["0X"],"window":4}]}`,
	`[]`,
	``,
	` `,
	"{\"cubes\":[\"0\x01\"]}",
	"{\"cubes\":[\"0\x7f\"]}",
	"{\"name\":\"\xff\"}",
	"\xef\xbb\xbf{}",
}

func TestDecodeMatchesJSON(t *testing.T) {
	for _, body := range decodeSeeds {
		checkDecodeMatchesJSON(t, []byte(body))
	}
	checkDecodeMatchesJSON(t, fillColdBody(t))
	checkDecodeMatchesJSON(t, coordBatchBody(t))
}

// TestScannerTakesClientBodies: every shape this repository's clients
// write takes the one-pass path, not the fallback.
func TestScannerTakesClientBodies(t *testing.T) {
	for _, body := range [][]byte{fillColdBody(t), coordBatchBody(t), []byte(decodeSeeds[0]), []byte(decodeSeeds[1]), []byte(decodeSeeds[2])} {
		var fill FillRequest
		var batch BatchRequest
		if !scanRequest(body, &fill) && !scanRequest(body, &batch) {
			t.Errorf("scanner fell back on %.80q", body)
		}
	}
	// A non-zero target is merged into by encoding/json; the scanner
	// leaves it to the fallback.
	pre := FillRequest{Name: "kept"}
	if scanRequest([]byte(`{"cubes":["01"]}`), &pre) {
		t.Fatal("scanner decoded into a non-zero FillRequest")
	}
}

// TestDecodeFillColdAllocations: decoding a fill-cold-shaped body
// allocates the MaxBytesReader, the body buffer and its two regrows
// (64 KiB, 256 KiB, the declared length), the one string copy of the
// body, the cubes slice and the copied orderer and filler names —
// nothing per cube.
func TestDecodeFillColdAllocations(t *testing.T) {
	rr := newReusableRequest(fillColdBody(t))
	var out FillRequest
	// A GC cycle can allocate in the runtime's own cleanup; with the
	// collector off the count is the decode's alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(5, func() {
		out = FillRequest{}
		if !rr.decode(&out) {
			t.Fatalf("decode failed: %s", rr.rec.Body.String())
		}
	})
	if len(out.Cubes) != 1460 || out.Orderer != "xstat" || !out.OmitCubes {
		t.Fatalf("decoded %d cubes, orderer %q, omit %v", len(out.Cubes), out.Orderer, out.OmitCubes)
	}
	if allocs > 8 {
		t.Fatalf("%v allocations per fill-cold decode, want at most 8", allocs)
	}
}

// FuzzDecodeRequest pins the one-pass scanner to encoding/json, the
// oracle, on arbitrary bodies read as a FillRequest and as a
// BatchRequest.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesJSON(t, body)
	})
}

// BenchmarkDecodeFillRequest decodes a fill-cold-shaped /v1/fill body
// (~734 KiB) through DecodeJSON.
func BenchmarkDecodeFillRequest(b *testing.B) {
	benchDecode(b, fillColdBody(b), func() any { return new(FillRequest) })
}

// BenchmarkDecodeBatchRequest decodes a coord-batch-shaped /v1/batch
// body (32 jobs) through DecodeJSON.
func BenchmarkDecodeBatchRequest(b *testing.B) {
	benchDecode(b, coordBatchBody(b), func() any { return new(BatchRequest) })
}

func benchDecode(b *testing.B, body []byte, mk func() any) {
	rr := newReusableRequest(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rr.decode(mk()) {
			b.Fatalf("decode failed: %s", rr.rec.Body.String())
		}
	}
}
