// Package logx is the fleet's structured logger: leveled, encoded as
// logfmt (the default, grep-friendly: key=value pairs joined by
// spaces) or JSON (one object per line, machine-parsed), with bound
// fields for trace correlation and a token-bucket sampler for hot
// paths. It is dependency-free by design — the serving tiers must not
// pull a logging framework into the fill hot path — and every method
// is safe on a nil *Logger, so call sites need no nil guards.
//
// Access-log lines keep the tokens the fleet's tooling greps for:
// method=POST path=/v1/batch status=200 dur_ms=1.42 rid=… span=…
// parent=…, so `grep rid=<id>` still reconstructs a request's path
// across tiers exactly as it did with the old flat format.
package logx

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log records by severity. The zero value is Info: a
// zero-initialized Options logs at the level daemons default to.
type Level int32

const (
	Info Level = iota
	Debug
	Warn
	Error
)

// String returns the lowercase name logfmt and JSON records carry.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "info"
	}
}

// severity maps levels onto a totally ordered scale for filtering
// (Level itself keeps Info as the zero value, so it is not ordered).
func (l Level) severity() int {
	switch l {
	case Debug:
		return 0
	case Warn:
		return 2
	case Error:
		return 3
	default:
		return 1
	}
}

// ParseLevel reads a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug, nil
	case "", "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// Format selects the line encoding.
type Format int32

const (
	// Logfmt writes space-separated key=value pairs, quoting values
	// that contain spaces or quotes.
	Logfmt Format = iota
	// JSON writes one JSON object per line.
	JSON
)

// ParseFormat reads a -log-format flag value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "logfmt", "text":
		return Logfmt, nil
	case "json":
		return JSON, nil
	}
	return Logfmt, fmt.Errorf("unknown log format %q (want logfmt or json)", s)
}

// FromFlags resolves a daemon's logging flags (-access-log, -log-level,
// -log-format) into a logger writing to w; nil when enabled is false,
// which disables logging.
func FromFlags(w io.Writer, enabled bool, level, format string) (*Logger, error) {
	if !enabled {
		return nil, nil
	}
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	fm, err := ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return New(w, Options{Level: lv, Format: fm}), nil
}

// Options configures a Logger. The zero value is a logfmt logger at
// Info with timestamps.
type Options struct {
	Level  Level
	Format Format
	// NoTime omits the time= field, for deterministic test output.
	NoTime bool
}

// Logger writes leveled structured records to one io.Writer. All
// methods are safe for concurrent use and safe on a nil receiver
// (no-ops), so a Config.Log left unset costs one nil check per call.
type Logger struct {
	w      io.Writer
	mu     *sync.Mutex // shared across With clones so lines never interleave
	level  *atomic.Int32
	format Format
	noTime bool
	now    func() time.Time
	bound  []any // alternating key, value — fields from With
}

// New builds a Logger writing to w.
func New(w io.Writer, opts Options) *Logger {
	lv := &atomic.Int32{}
	lv.Store(int32(opts.Level))
	return &Logger{
		w:      w,
		mu:     &sync.Mutex{},
		level:  lv,
		format: opts.Format,
		noTime: opts.NoTime,
		now:    time.Now,
	}
}

// SetLevel changes the minimum severity at runtime (atomically — no
// coordination with in-flight logging needed).
func (l *Logger) SetLevel(v Level) {
	if l != nil {
		l.level.Store(int32(v))
	}
}

// Enabled reports whether records at the given level are emitted.
func (l *Logger) Enabled(v Level) bool {
	if l == nil {
		return false
	}
	return v.severity() >= Level(l.level.Load()).severity()
}

// With returns a Logger that prepends the given key/value pairs to
// every record. The clone shares the parent's writer, mutex and level.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	c := *l
	c.bound = append(append([]any(nil), l.bound...), kv...)
	return &c
}

// Debugf-free API: one method per level, slog-style alternating
// key/value pairs after the message.

func (l *Logger) Debug(msg string, kv ...any) { l.log(Debug, msg, kv) }
func (l *Logger) Info(msg string, kv ...any)  { l.log(Info, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(Warn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(Error, msg, kv) }

func (l *Logger) log(v Level, msg string, kv []any) {
	if !l.Enabled(v) {
		return
	}
	var b strings.Builder
	b.Grow(128)
	if l.format == JSON {
		l.encodeJSON(&b, v, msg, kv)
	} else {
		l.encodeLogfmt(&b, v, msg, kv)
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

func (l *Logger) encodeLogfmt(b *strings.Builder, v Level, msg string, kv []any) {
	if !l.noTime {
		b.WriteString("time=")
		b.WriteString(l.now().UTC().Format(time.RFC3339Nano))
		b.WriteByte(' ')
	}
	b.WriteString("level=")
	b.WriteString(v.String())
	b.WriteString(" msg=")
	b.WriteString(quoteLogfmt(msg))
	writePairs := func(kv []any) {
		for i := 0; i+1 < len(kv); i += 2 {
			b.WriteByte(' ')
			b.WriteString(keyString(kv[i]))
			b.WriteByte('=')
			b.WriteString(quoteLogfmt(valueString(kv[i+1])))
		}
		if len(kv)%2 != 0 {
			b.WriteString(" !BADKEY=")
			b.WriteString(quoteLogfmt(valueString(kv[len(kv)-1])))
		}
	}
	writePairs(l.bound)
	writePairs(kv)
}

func (l *Logger) encodeJSON(b *strings.Builder, v Level, msg string, kv []any) {
	b.WriteByte('{')
	if !l.noTime {
		b.WriteString(`"time":`)
		b.WriteString(strconv.Quote(l.now().UTC().Format(time.RFC3339Nano)))
		b.WriteByte(',')
	}
	b.WriteString(`"level":`)
	b.WriteString(strconv.Quote(v.String()))
	b.WriteString(`,"msg":`)
	b.WriteString(strconv.Quote(msg))
	writePairs := func(kv []any) {
		for i := 0; i+1 < len(kv); i += 2 {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(keyString(kv[i])))
			b.WriteByte(':')
			b.WriteString(jsonValue(kv[i+1]))
		}
		if len(kv)%2 != 0 {
			b.WriteString(`,"!BADKEY":`)
			b.WriteString(jsonValue(kv[len(kv)-1]))
		}
	}
	writePairs(l.bound)
	writePairs(kv)
	b.WriteByte('}')
}

func keyString(k any) string {
	if s, ok := k.(string); ok {
		return s
	}
	return fmt.Sprint(k)
}

// valueString renders a field value for logfmt. Durations keep their
// native form (1.42ms); floats trim trailing zeros; errors render
// their message.
func valueString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		if x == nil {
			return "<nil>"
		}
		return x.Error()
	case time.Duration:
		return x.String()
	case float64:
		return strconv.FormatFloat(x, 'f', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'f', -1, 32)
	default:
		return fmt.Sprint(v)
	}
}

// jsonValue renders a field value as a JSON token, keeping numerics
// and booleans unquoted.
func jsonValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int32:
		return strconv.FormatInt(int64(x), 10)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return strconv.Quote(strconv.FormatFloat(x, 'g', -1, 64))
		}
		raw, _ := json.Marshal(x)
		return string(raw)
	case time.Duration:
		return strconv.Quote(x.String())
	case error:
		if x == nil {
			return "null"
		}
		return strconv.Quote(x.Error())
	case string:
		return strconv.Quote(x)
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return strconv.Quote(fmt.Sprint(v))
		}
		return string(raw)
	}
}

// quoteLogfmt quotes a logfmt value only when it needs it, keeping
// the common case (idents, numbers, paths, hex IDs) grep-friendly.
func quoteLogfmt(s string) string {
	if s == "" {
		return `""`
	}
	if strings.IndexFunc(s, func(r rune) bool {
		return r <= ' ' || r == '"' || r == '=' || r == 0x7f
	}) < 0 {
		return s
	}
	return strconv.Quote(s)
}

// Sampler rate-limits a hot logging path with a token bucket: Burst
// tokens refilled at one per Every. Suppressed records are counted and
// the count rides the next emitted record as dropped=N, so volume is
// bounded but loss is visible. Safe on a nil receiver and for
// concurrent use.
type Sampler struct {
	l       *Logger
	every   time.Duration
	burst   float64
	mu      sync.Mutex
	tokens  float64
	last    time.Time
	dropped atomic.Uint64
	now     func() time.Time
}

// NewSampler builds a sampler over l admitting a burst of burst
// records, refilling one token per every.
func NewSampler(l *Logger, every time.Duration, burst int) *Sampler {
	if every <= 0 {
		every = time.Second
	}
	if burst < 1 {
		burst = 1
	}
	return &Sampler{l: l, every: every, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// allow takes a token, refilling by elapsed time first.
func (s *Sampler) allow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if !s.last.IsZero() {
		s.tokens += float64(now.Sub(s.last)) / float64(s.every)
		if s.tokens > s.burst {
			s.tokens = s.burst
		}
	}
	s.last = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// Log emits one record at the given level if a token is available,
// otherwise counts a drop. The first record after a dropped stretch
// carries dropped=N.
func (s *Sampler) Log(v Level, msg string, kv ...any) {
	if s == nil || !s.l.Enabled(v) {
		return
	}
	if !s.allow() {
		s.dropped.Add(1)
		return
	}
	if n := s.dropped.Swap(0); n > 0 {
		kv = append(append([]any(nil), kv...), "dropped", n)
	}
	s.l.log(v, msg, kv)
}

// Dropped returns records suppressed since the last emitted record.
func (s *Sampler) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}
