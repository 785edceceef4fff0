package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"

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
	body, err := readBody(r.Body, r.ContentLength, limit)
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

// firstRead is the most readBody allocates before any body byte has
// arrived.
const firstRead = 64 << 10

// readBody reads r to EOF. The buffer starts at the declared
// Content-Length, but at no more than firstRead bytes, and each time it
// fills it grows fourfold up to the declared length (the limit when
// there is no declaration or it is over the limit). An honest body
// takes a few allocations; a client that declares a large body and
// stalls makes the server hold no more than firstRead bytes or four
// times what it has sent, whichever is more.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared < 0 || declared > limit {
		declared = limit
	}
	// One spare byte lets the final Read report EOF without a regrow.
	want := int(declared) + 1
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
	// substrings of it. A failed scan resets the target, which was zero.
	var s scanner
	switch p := v.(type) {
	case *FillRequest:
		if !zero(p) {
			return false
		}
		s.b = string(body)
		if s.fill(p) && s.end() {
			return true
		}
		*p = FillRequest{}
	case *BatchRequest:
		if !zero(p) {
			return false
		}
		s.b = string(body)
		if s.batch(p) && s.end() {
			return true
		}
		*p = BatchRequest{}
	}
	return false
}

// zero reports whether p is non-nil and points at a zero value: the
// only target encoding/json does not merge into.
func zero[T any](p *T) bool {
	return p != nil && reflect.ValueOf(p).Elem().IsZero()
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

// fill scans one FillRequest object.
func (s *scanner) fill(req *FillRequest) bool {
	if !s.lit('{') {
		return false
	}
	var seen uint16
	for n := 0; ; n++ {
		key, done, ok := s.member(n)
		if !ok || done {
			return ok
		}
		var bit uint16
		switch key {
		case "name":
			bit = 1 << 0
			req.Name, ok = s.copyStr()
		case "cubes":
			bit = 1 << 1
			req.Cubes, ok = s.cubes()
		case "stil":
			bit = 1 << 2
			req.STIL, ok = s.copyStr()
		case "orderer":
			bit = 1 << 3
			req.Orderer, ok = s.copyStr()
		case "filler":
			bit = 1 << 4
			req.Filler, ok = s.copyStr()
		case "seed":
			bit = 1 << 5
			req.Seed, ok = s.integer()
		case "priority":
			bit = 1 << 6
			var p int64
			p, ok = s.integer()
			req.Priority = int(p)
			ok = ok && int64(req.Priority) == p
		case "timeout_ms":
			bit = 1 << 7
			req.TimeoutMillis, ok = s.integer()
		case "omit_cubes":
			bit = 1 << 8
			req.OmitCubes, ok = s.boolean()
		case "debug":
			bit = 1 << 9
			req.Debug, ok = s.boolean()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// batch scans one BatchRequest object.
func (s *scanner) batch(req *BatchRequest) bool {
	if !s.lit('{') {
		return false
	}
	var seen uint8
	for n := 0; ; n++ {
		key, done, ok := s.member(n)
		if !ok || done {
			return ok
		}
		var bit uint8
		switch key {
		case "jobs":
			bit = 1 << 0
			req.Jobs, ok = s.jobs()
		case "debug":
			bit = 1 << 1
			req.Debug, ok = s.boolean()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
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
