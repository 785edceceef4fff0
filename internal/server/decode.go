package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/cube"
)

// DecodeJSON is the request-body decoder both serving tiers share: it
// reads at most limit bytes, rejects unknown fields, and requires the
// body to end after its one JSON value (trailing whitespace aside). On
// failure it answers the request itself — 413 past the limit, 400 for
// anything malformed — and returns false.
//
// The body is read once. A FillRequest or BatchRequest body inside the
// strict subset scanRequest accepts (the shape every client of this
// repository writes) is decoded in one pass over it, its cube strings
// substrings of a single copy of the body. Every other body — STIL text
// with its escapes, null, case-variant keys, unknown fields, anything
// malformed or over the limit — goes to encoding/json over the same
// bytes, so its answer is the one this decoder has always given.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	body, err := ReadBody(r.Body, r.ContentLength, limit)
	if err == nil && scanRequest(body, v) {
		return true
	}
	// A failed read replays the bytes that did arrive, then the read
	// error, so encoding/json meets exactly the stream it would have
	// read itself.
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		src = io.MultiReader(src, failReader{err})
	}
	if err = decodeStrict(src, v); err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return false
	}
	// dpvet:ignore errwrap decode-error detail is the 400 contract: callers debug their own malformed bodies
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed JSON: " + err.Error()})
	return false
}

// decodeStrict is the encoding/json path: one value, no unknown
// fields, nothing but whitespace after it.
func decodeStrict(src io.Reader, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// One value per body: whatever follows it is malformed, a second
	// value included.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("body continues after the first JSON value")
		}
		return err
	}
	return nil
}

// firstRead is the most ReadBody allocates before any body byte has
// arrived.
const firstRead = 64 << 10

// ReadBody reads r to EOF. The buffer starts at the declared
// Content-Length, but at no more than firstRead bytes, and each time it
// fills it grows fourfold up to the declared length (the limit when
// there is no declaration or it is over the limit). An honest body
// takes a few allocations and ends in a buffer of its exact length; a
// peer that declares a large body and stalls makes the reader hold no
// more than firstRead bytes or four times what it has sent, whichever
// is more. The server reads requests with it, the client answers.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared < 0 || declared > limit {
		declared = limit
	}
	// One spare byte lets the final Read report EOF without a regrow.
	want := int(min(declared, math.MaxInt-1)) + 1
	buf := make([]byte, 0, min(want, firstRead+1))
	for {
		if len(buf) == cap(buf) {
			next := min(4*cap(buf), want)
			if next <= cap(buf) {
				// The body outgrew its declaration.
				next = 2 * cap(buf)
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// failReader answers every Read with err.
type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }

// scanRequest decodes body into v when v points at a zero FillRequest
// or BatchRequest and body lies inside the strict subset of JSON that
// every accepted form decodes identically under encoding/json:
//
//   - exact lowercase field names, each at most once (encoding/json
//     folds case and merges a repeated key into the earlier value);
//   - strings of printable ASCII with no backslash;
//   - canonical int64 integers (no -0, fraction or exponent);
//   - true and false;
//   - JSON whitespace around tokens and nothing after the value.
//
// It reports false, leaving v untouched, for everything else.
func scanRequest(body []byte, v any) bool {
	// The body is copied into one string; the cube strings are
	// substrings of it.
	switch v.(type) {
	case *FillRequest, *BatchRequest:
		return scan(string(body), v)
	}
	return false
}

// DecodeAnswer decodes body, a /v1/fill or /v1/batch answer, into v:
// in one pass when v points at a zero FillResponse or BatchResponse and
// body lies inside scanAnswer's subset, through json.Unmarshal over the
// same bytes otherwise, with the same result either way. Cube strings
// may alias body, which the caller must not modify afterwards.
func DecodeAnswer(body []byte, v any) error {
	if scanAnswer(body, v) {
		return nil
	}
	return json.Unmarshal(body, v)
}

// scanAnswer is scanRequest for the answers: it decodes body into v
// when v points at a zero FillResponse or BatchResponse and body lies
// inside the subset scanRequest accepts, with canonical int arrays and
// JSON-grammar floats besides. An explain trace, a shard breakdown and
// null leave it. It reports false, leaving v untouched, for everything
// else. The body is not copied: cube strings alias it.
func scanAnswer(body []byte, v any) bool {
	return scan(unsafe.String(unsafe.SliceData(body), len(body)), v)
}

// scan decodes the object b into v, which points at one of the four
// scanned types.
func scan(b string, v any) bool {
	s := &scanner{b: b}
	switch p := v.(type) {
	case *FillRequest:
		return scanZero(s, p, s.fill)
	case *BatchRequest:
		return scanZero(s, p, s.batch)
	case *FillResponse:
		return scanZero(s, p, s.fillAnswer)
	case *BatchResponse:
		return scanZero(s, p, s.batchAnswer)
	}
	return false
}

// scanZero scans one object into p and then the end of the body. p
// must be non-nil and point at a zero value, the only target
// encoding/json does not merge into; a failed scan resets it to zero.
func scanZero[T any](s *scanner, p *T, object func(*T) bool) bool {
	if p == nil || !reflect.ValueOf(p).Elem().IsZero() {
		return false
	}
	if object(p) && s.end() {
		return true
	}
	*p = *new(T)
	return false
}

// scanner walks a body inside scanRequest's subset. Each method
// reports false as soon as the input leaves it.
type scanner struct {
	b string
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the byte c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// member moves to an object's next member after n members, past its
// key and colon: done reports the closing brace instead.
func (s *scanner) member(n int) (key string, done, ok bool) {
	if s.lit('}') {
		return "", true, true
	}
	if n > 0 && !s.lit(',') {
		return "", false, false
	}
	key, ok = s.str()
	return key, false, ok && s.lit(':')
}

// str scans one string of printable ASCII without a backslash and
// returns it as a substring of the body. Whole words of plain bytes
// are skipped eight at a time; the plainByte loop finds the byte that
// stops the scan within the last word, or the tail.
func (s *scanner) str() (string, bool) {
	if !s.lit('"') {
		return "", false
	}
	j := s.i
	for j+8 <= len(s.b) && plainWord(cube.LoadStr64(s.b[j:])) {
		j += 8
	}
	for j < len(s.b) && plainByte[s.b[j]] {
		j++
	}
	if j == len(s.b) || s.b[j] != '"' {
		return "", false
	}
	out := s.b[s.i:j]
	s.i = j + 1
	return out, true
}

// plainByte marks the bytes a string in the subset holds verbatim:
// printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainWord reports whether all eight bytes of x are plainByte ones.
// A byte b below 0x80 is printable when b+0x60 reaches bit 7 (b is at
// least 0x20) and b+1 does not (b is not DEL), and y+0x7F reaches bit 7
// exactly when y is not zero; with bit 7 clear in every byte of x, no
// sum carries into the next byte. A byte at or above 0x80 fails the
// ^x test, whatever its garbled sums say.
func plainWord(x uint64) bool {
	const (
		lsb8 = 0x0101010101010101
		msb8 = 0x8080808080808080
		low7 = ^uint64(msb8)
	)
	ok := ^x & (x + 0x60*lsb8) &^ (x + lsb8) &
		(x ^ '"'*lsb8 + low7) & (x ^ '\\'*lsb8 + low7)
	return ok&msb8 == msb8
}

// copyStr scans a string into a fresh copy, so a short retained field
// never pins the whole body.
func (s *scanner) copyStr() (string, bool) {
	str, ok := s.str()
	return strings.Clone(str), ok
}

// cubes scans an array of strings, each a substring of the body. A
// first pass validates and counts, so the slice is allocated once at
// its final length; the second only finds the quotes again.
func (s *scanner) cubes() ([]string, bool) {
	if !s.lit('[') {
		return nil, false
	}
	start := s.i
	n := 0
	for ; !s.lit(']'); n++ {
		if n > 0 && !s.lit(',') {
			return nil, false
		}
		if _, ok := s.str(); !ok {
			return nil, false
		}
	}
	out := make([]string, n)
	for k := range out {
		open := start + strings.IndexByte(s.b[start:], '"') + 1
		end := open + strings.IndexByte(s.b[open:], '"')
		out[k] = s.b[open:end]
		start = end + 1
	}
	return out, true
}

// integer scans a canonical integer that fits an int64.
func (s *scanner) integer() (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	j := s.i
	var u uint64
	for ; j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9'; j++ {
		if u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(s.b[j]-'0')
	}
	digits := j - s.i
	switch {
	case digits == 0, digits > 1 && s.b[s.i] == '0':
		return 0, false
	case neg && (u == 0 || u > 1<<63), !neg && u > 1<<63-1:
		return 0, false
	}
	s.i = j
	if neg {
		return int64(-u), true
	}
	return int64(u), true
}

// number scans an int-typed field: a canonical integer that fits an
// int.
func (s *scanner) number() (int, bool) {
	v, ok := s.integer()
	return int(v), ok && int64(int(v)) == v
}

// ints scans an array of canonical integers. Its length is counted
// first from the commas before the first ']' (no element holds either
// byte), so the slice is allocated once.
func (s *scanner) ints() ([]int, bool) {
	if !s.lit('[') {
		return nil, false
	}
	s.ws()
	end := strings.IndexByte(s.b[s.i:], ']')
	switch end {
	case -1:
		return nil, false
	case 0:
		s.i++
		return []int{}, true
	}
	out := make([]int, strings.Count(s.b[s.i:s.i+end], ",")+1)
	for k := range out {
		if k > 0 && !s.lit(',') {
			return nil, false
		}
		var ok bool
		if out[k], ok = s.number(); !ok {
			return nil, false
		}
	}
	return out, s.lit(']')
}

// float scans a number in the JSON grammar and parses it as
// encoding/json does, with strconv.ParseFloat; one out of float64's
// range leaves the subset.
func (s *scanner) float() (float64, bool) {
	s.ws()
	digits := func(j int) int {
		for j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9' {
			j++
		}
		return j
	}
	j := s.i
	if j < len(s.b) && s.b[j] == '-' {
		j++
	}
	switch {
	case j < len(s.b) && s.b[j] == '0':
		j++
	case j < len(s.b) && s.b[j] >= '1' && s.b[j] <= '9':
		j = digits(j)
	default:
		return 0, false
	}
	if j < len(s.b) && s.b[j] == '.' {
		k := digits(j + 1)
		if k == j+1 {
			return 0, false
		}
		j = k
	}
	if j < len(s.b) && (s.b[j] == 'e' || s.b[j] == 'E') {
		j++
		if j < len(s.b) && (s.b[j] == '+' || s.b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return 0, false
		}
		j = k
	}
	f, err := strconv.ParseFloat(s.b[s.i:j], 64)
	if err != nil {
		return 0, false
	}
	s.i = j
	return f, true
}

// boolean scans true or false.
func (s *scanner) boolean() (bool, bool) {
	s.ws()
	switch {
	case strings.HasPrefix(s.b[s.i:], "true"):
		s.i += 4
		return true, true
	case strings.HasPrefix(s.b[s.i:], "false"):
		s.i += 5
		return false, true
	}
	return false, false
}

// object scans one object, handing each member's key to field, which
// scans the value and reports false for an unknown key or a value
// outside the subset. A repeated key leaves the subset too.
func (s *scanner) object(field func(key string) bool) bool {
	if !s.lit('{') {
		return false
	}
	var seen [16]string
	for n := 0; ; n++ {
		key, done, ok := s.member(n)
		if !ok || done {
			return ok
		}
		if n == len(seen) || slices.Contains(seen[:n], key) || !field(key) {
			return false
		}
		seen[n] = key
	}
}

// fill scans one FillRequest object.
func (s *scanner) fill(req *FillRequest) bool {
	return s.object(func(key string) (ok bool) {
		switch key {
		case "name":
			req.Name, ok = s.copyStr()
		case "cubes":
			req.Cubes, ok = s.cubes()
		case "stil":
			req.STIL, ok = s.copyStr()
		case "orderer":
			req.Orderer, ok = s.copyStr()
		case "filler":
			req.Filler, ok = s.copyStr()
		case "seed":
			req.Seed, ok = s.integer()
		case "priority":
			req.Priority, ok = s.number()
		case "timeout_ms":
			req.TimeoutMillis, ok = s.integer()
		case "omit_cubes":
			req.OmitCubes, ok = s.boolean()
		case "debug":
			req.Debug, ok = s.boolean()
		}
		return ok
	})
}

// batch scans one BatchRequest object.
func (s *scanner) batch(req *BatchRequest) bool {
	return s.object(func(key string) (ok bool) {
		switch key {
		case "jobs":
			req.Jobs, ok = s.jobs()
		case "debug":
			req.Debug, ok = s.boolean()
		}
		return ok
	})
}

// jobs scans an array of FillRequest objects.
func (s *scanner) jobs() ([]FillRequest, bool) {
	if !s.lit('[') {
		return nil, false
	}
	out := []FillRequest{}
	for n := 0; !s.lit(']'); n++ {
		if n > 0 && !s.lit(',') {
			return nil, false
		}
		out = append(out, FillRequest{})
		if !s.fill(&out[n]) {
			return nil, false
		}
	}
	return out, true
}

// fillAnswer scans one FillResponse object.
func (s *scanner) fillAnswer(r *FillResponse) bool {
	return s.object(func(key string) (ok bool) {
		switch key {
		case "name":
			r.Name, ok = s.copyStr()
		case "rows":
			r.Rows, ok = s.number()
		case "width":
			r.Width, ok = s.number()
		case "x_percent":
			r.XPercent, ok = s.float()
		case "orderer":
			r.Orderer, ok = s.copyStr()
		case "filler":
			r.Filler, ok = s.copyStr()
		case "perm":
			r.Perm, ok = s.ints()
		case "cubes":
			r.Cubes, ok = s.cubes()
		case "peak":
			r.Peak, ok = s.number()
		case "total":
			r.Total, ok = s.number()
		case "profile":
			r.Profile, ok = s.ints()
		case "duration_ms":
			r.DurationMillis, ok = s.float()
		case "cached":
			r.Cached, ok = s.boolean()
		}
		return ok
	})
}

// batchAnswer scans one BatchResponse object.
func (s *scanner) batchAnswer(r *BatchResponse) bool {
	return s.object(func(key string) (ok bool) {
		switch key {
		case "results":
			r.Results, ok = s.items()
		case "failed":
			r.Failed, ok = s.number()
		}
		return ok
	})
}

// items scans an array of BatchItem objects.
func (s *scanner) items() ([]BatchItem, bool) {
	if !s.lit('[') {
		return nil, false
	}
	out := []BatchItem{}
	for n := 0; !s.lit(']'); n++ {
		if n > 0 && !s.lit(',') {
			return nil, false
		}
		out = append(out, BatchItem{})
		it := &out[n]
		if !s.object(func(key string) (ok bool) {
			switch key {
			case "result":
				it.Result = new(FillResponse)
				ok = s.fillAnswer(it.Result)
			case "error":
				it.Error, ok = s.copyStr()
			}
			return ok
		}) {
			return nil, false
		}
	}
	return out, true
}
