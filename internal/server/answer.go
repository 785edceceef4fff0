package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cube"
)

// The /v1/fill and /v1/batch answers are appended by hand into one
// buffer, byte-identical to what encoding/json writes for the same
// values with HTML escaping off: a fill-hot answer is mostly cube
// text, written straight from the cache entry's bits. The debug-only
// explain traces and shard breakdowns, and any string that is not
// plain printable ASCII, still go through encoding/json.

// MarshalJSON writes r as encoding/json writes it without the method,
// so json.Marshal of an async job's result gives the synchronous
// answer's bytes (json.Marshal then escapes HTML, as it always has).
func (r FillResponse) MarshalJSON() ([]byte, error) { return appendFill(nil, &r) }

// MarshalJSON is FillResponse.MarshalJSON for a batch answer.
func (r BatchResponse) MarshalJSON() ([]byte, error) { return appendBatch(nil, &r) }

// appendFill appends r as encoding/json writes a FillResponse.
func appendFill(dst []byte, r *FillResponse) ([]byte, error) {
	dst = append(dst, '{')
	if r.Name != "" {
		dst = appendString(append(dst, `"name":`...), r.Name)
		dst = append(dst, ',')
	}
	dst = strconv.AppendInt(append(dst, `"rows":`...), int64(r.Rows), 10)
	dst = strconv.AppendInt(append(dst, `,"width":`...), int64(r.Width), 10)
	dst, err := appendFloat(append(dst, `,"x_percent":`...), r.XPercent)
	if err != nil {
		return dst, err
	}
	dst = appendString(append(dst, `,"orderer":`...), r.Orderer)
	dst = appendString(append(dst, `,"filler":`...), r.Filler)
	if len(r.Perm) > 0 {
		dst = appendInts(append(dst, `,"perm":`...), r.Perm)
	}
	switch {
	case r.filled != nil && r.filled.N > 0:
		dst = r.filled.AppendJSON(append(dst, `,"cubes":`...))
	case len(r.Cubes) > 0:
		dst = append(dst, `,"cubes":[`...)
		for k, c := range r.Cubes {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"peak":`...), int64(r.Peak), 10)
	dst = strconv.AppendInt(append(dst, `,"total":`...), int64(r.Total), 10)
	if len(r.Profile) > 0 {
		dst = appendInts(append(dst, `,"profile":`...), r.Profile)
	}
	if dst, err = appendFloat(append(dst, `,"duration_ms":`...), r.DurationMillis); err != nil {
		return dst, err
	}
	dst = strconv.AppendBool(append(dst, `,"cached":`...), r.Cached)
	if r.Explain != nil {
		if dst, err = appendValue(append(dst, `,"explain":`...), r.Explain); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendBatch appends r as encoding/json writes a BatchResponse, every
// item into the same buffer.
func appendBatch(dst []byte, r *BatchResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for k, it := range r.Results {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if it.Result != nil {
				if dst, err = appendFill(append(dst, `"result":`...), it.Result); err != nil {
					return dst, err
				}
			}
			if it.Error != "" {
				if it.Result != nil {
					dst = append(dst, ',')
				}
				dst = appendString(append(dst, `"error":`...), it.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"failed":`...), int64(r.Failed), 10)
	if len(r.Shards) > 0 {
		if dst, err = appendValue(append(dst, `,"shards":`...), r.Shards); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendString appends s as a JSON string. Plain printable ASCII is
// copied between quotes; anything else — quotes, backslashes, control
// bytes, non-ASCII, invalid UTF-8 — is left to encoding/json.
func appendString(dst []byte, s string) []byte {
	i := 0
	for i+8 <= len(s) && plainWord(cube.LoadStr64(s[i:])) {
		i += 8
	}
	for i < len(s) && plainByte[s[i]] {
		i++
	}
	if i < len(s) {
		// A string never fails to encode.
		dst, _ = appendValue(dst, s)
		return dst
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendInts appends a non-empty int slice as a JSON array.
func appendInts(dst []byte, v []int) []byte {
	dst = append(dst, '[')
	for k, x := range v {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, 'e' below 1e-6 or from 1e21 up with a one-digit
// negative exponent unpadded, and an error for NaN and the infinities.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendValue appends v through an encoding/json Encoder with HTML
// escaping off, without the Encoder's newline.
func appendValue(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return dst, err
	}
	out := buf.Bytes()
	return out[:len(out)-1], nil
}

// answerPool recycles writeJSON's buffers; one grown past
// maxPooledAnswer is left to the collector.
var answerPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledAnswer = 4 << 20

// writeJSON answers v with status: the fill and batch answers through
// their appenders, anything else through encoding/json, HTML escaping
// off and a trailing newline either way, in one Write with its
// Content-Length. A value that cannot be encoded answers an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := answerPool.Get().(*[]byte)
	var b []byte
	var err error
	switch v := v.(type) {
	case *FillResponse:
		b, err = appendFill((*bp)[:0], v)
	case *BatchResponse:
		b, err = appendBatch((*bp)[:0], v)
	default:
		b, err = appendValue((*bp)[:0], v)
	}
	if err == nil {
		b = append(b, '\n')
	} else {
		b = b[:0]
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledAnswer {
		*bp = b
		answerPool.Put(bp)
	}
}
