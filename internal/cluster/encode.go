package cluster

// Request bodies and routing keys. The coordinator encodes each fill
// and each batch shard once, here, and sends the same bytes on every
// attempt: failovers, the hedge and the local fallback. The routing
// key comes out of the same pass. It hashes the fields the worker's
// result cache keys on (cube text or STIL, orderer, filler and seed of
// each job, in job order), so a repeat that differs only in name,
// debug, omit_cubes, timeout_ms or priority lands on the worker whose
// cache holds its answer.

import (
	"encoding/json"
	"strconv"

	"repro/internal/client"
	"repro/internal/cube"
)

const (
	lsb8    = 0x0101010101010101 // bit 0 of every byte
	msb8    = 0x8080808080808080 // bit 7 of every byte
	low7    = ^uint64(msb8)      // bits 0–6 of every byte
	hashMul = 0x9E3779B97F4A7C15 // 2^64/φ, odd
)

// mix folds the word w into the hash state h. For a fixed h it is a
// bijection of w, and for a fixed w a bijection of h, so two inputs
// of equal lengths that differ in one word always hash apart.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * hashMul
	return h ^ h>>32
}

// finish is the murmur3 finalizer over h, mapped off 0, which
// dispatch reads as "no affinity".
func finish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

// plain returns a word whose byte k has bit 7 set when byte k of x
// goes into a JSON string as itself under json.Marshal: not below
// 0x20, not '"', '\\', '<', '>' or '&'. It is exact only when every
// byte of x is below 0x80; scan flags the other bytes separately.
// With bit 7 clear in every byte, no sum below carries into the next
// byte: b+0x60 reaches 0x80 exactly when b >= 0x20, and y+0x7F when y
// is not zero. b|4 == 0x26 picks out '"' and '&', b|2 == 0x3E '<' and
// '>'.
func plain(x uint64) uint64 {
	return (x + 0x60*lsb8) &
		((x | 0x04*lsb8) ^ 0x26*lsb8 + low7) &
		((x | 0x02*lsb8) ^ 0x3e*lsb8 + low7) &
		(x ^ '\\'*lsb8 + low7)
}

// encoder appends a request body while it hashes the routing key and
// gathers the escape mask: bit 7 of some byte of bad is set when a
// string needs an escape, and the body is then json.Marshal's.
type encoder struct {
	buf    []byte
	h, bad uint64
}

// str appends s as a JSON string, feeding the escape mask and, when
// keyed, the routing hash.
func (e *encoder) str(s string, keyed bool) {
	e.h, e.bad = scan(s, e.h, e.bad, keyed)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// scan folds each 8-byte word of s into the escape mask bad and, when
// keyed, into the hash h after s's length. A short tail is padded with
// 'A', which needs no escape.
func scan(s string, h, bad uint64, keyed bool) (uint64, uint64) {
	if keyed {
		h = mix(h, uint64(len(s)))
	}
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := cube.LoadStr64(s[i:])
		bad |= x | ^plain(x)
		if keyed {
			h = mix(h, x)
		}
	}
	if i < len(s) {
		var x uint64
		for k := len(s) - 1; k >= i; k-- {
			x = x<<8 | uint64(s[k])
		}
		x |= 'A' * lsb8 << (8 * (len(s) - i))
		bad |= x | ^plain(x)
		if keyed {
			h = mix(h, x)
		}
	}
	return h, bad
}

// field appends the key of an object member, after a comma unless it
// is the object's first member.
func (e *encoder) field(key string) {
	if e.buf[len(e.buf)-1] != '{' {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '"', ':')
}

// job appends one FillRequest object, fields in json.Marshal's order
// and omitempty rules.
func (e *encoder) job(j *client.FillRequest) {
	e.buf = append(e.buf, '{')
	if j.Name != "" {
		e.field("name")
		e.str(j.Name, false)
	}
	e.h = mix(e.h, uint64(len(j.Cubes)))
	if len(j.Cubes) > 0 {
		e.field("cubes")
		e.buf = append(e.buf, '[')
		for k, c := range j.Cubes {
			if k > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(c, true)
		}
		e.buf = append(e.buf, ']')
	}
	e.text("stil", j.STIL)
	e.text("orderer", j.Orderer)
	e.text("filler", j.Filler)
	e.h = mix(e.h, uint64(j.Seed))
	e.int("seed", j.Seed)
	e.int("priority", int64(j.Priority))
	e.int("timeout_ms", j.TimeoutMillis)
	e.flag("omit_cubes", j.OmitCubes)
	e.flag("debug", j.Debug)
	e.buf = append(e.buf, '}')
}

// text appends an omitempty string member; the key hashes s whether
// or not it is empty, so two fields never run together.
func (e *encoder) text(key, s string) {
	if s == "" {
		e.h = mix(e.h, 0)
		return
	}
	e.field(key)
	e.str(s, true)
}

// int appends an omitempty integer member.
func (e *encoder) int(key string, v int64) {
	if v != 0 {
		e.field(key)
		e.buf = strconv.AppendInt(e.buf, v, 10)
	}
}

// flag appends an omitempty boolean member.
func (e *encoder) flag(key string, v bool) {
	if v {
		e.field(key)
		e.buf = append(e.buf, "true"...)
	}
}

// jobSize bounds the bytes job appends for j, so one allocation holds
// a whole body: 192 covers the keys, quotes, commas, braces, three
// 20-byte integers and two booleans.
func jobSize(j *client.FillRequest) int {
	n := 192 + len(j.Name) + len(j.STIL) + len(j.Orderer) + len(j.Filler)
	for _, c := range j.Cubes {
		n += len(c) + 3
	}
	return n
}

// done returns the body, or json.Marshal(v) when a string needed an
// escape, and the routing key.
func (e *encoder) done(v any) ([]byte, uint64) {
	body := e.buf
	if e.bad&msb8 != 0 {
		// Strings, integers and booleans always marshal.
		body, _ = json.Marshal(v)
	}
	return body, finish(e.h)
}

// encodeFill returns json.Marshal(req) and req's routing key.
func encodeFill(req client.FillRequest) ([]byte, uint64) {
	e := encoder{buf: make([]byte, 0, jobSize(&req))}
	e.job(&req)
	return e.done(req)
}

// encodeBatch returns json.Marshal(req) and req's routing key, which
// hashes its jobs in order. A one-job batch keys like that job's fill.
func encodeBatch(req client.BatchRequest) ([]byte, uint64) {
	size := 32
	for k := range req.Jobs {
		size += jobSize(&req.Jobs[k]) + 1
	}
	e := encoder{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, `{"jobs":`...)
	if req.Jobs == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for k := range req.Jobs {
			if k > 0 {
				e.buf = append(e.buf, ',')
			}
			e.job(&req.Jobs[k])
		}
		e.buf = append(e.buf, ']')
	}
	if req.Debug {
		e.buf = append(e.buf, `,"debug":true`...)
	}
	e.buf = append(e.buf, '}')
	return e.done(req)
}

// encodePipeline returns json.Marshal(req) and its routing key, the
// word hash of the whole body: a pipeline request is a few hundred
// bytes, and every field of it shapes the run.
func encodePipeline(req client.PipelineRequest) ([]byte, uint64) {
	// Strings, integers and booleans always marshal.
	body, _ := json.Marshal(req)
	h, _ := scan(string(body), 0, 0, true)
	return body, finish(h)
}
