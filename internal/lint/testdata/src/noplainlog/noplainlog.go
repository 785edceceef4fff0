// Package noplainlog exercises the noplainlog analyzer.
package noplainlog

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"os"
)

func bad(x int) {
	log.Printf("x=%d", x)      // want "log.Printf"
	log.Println("hello")       // want "log.Println"
	fmt.Println("stdout")      // want "fmt.Println"
	fmt.Printf("x=%d\n", x)    // want "fmt.Printf"
	fmt.Print("no newline")    // want "fmt.Print"
	println("builtin println") // want "builtin println"
}

func defaultLogger(ctx context.Context) {
	slog.Debug("d")                                // want "slog.Debug"
	slog.Info("request", "rid", "r1")              // want "slog.Info"
	slog.Warn("w")                                 // want "slog.Warn"
	slog.Error("e", "err", nil)                    // want "slog.Error"
	slog.InfoContext(ctx, "i")                     // want "slog.InfoContext"
	slog.Log(ctx, slog.LevelInfo, "l")             // want "slog.Log"
	slog.LogAttrs(ctx, slog.LevelInfo, "a")        // want "slog.LogAttrs"
	slog.Default().Info("explicit default logger") // want "slog.Default"
}

func good(x int, l *slog.Logger) string {
	fmt.Fprintf(os.Stderr, "x=%d\n", x)               // ok: explicit writer is rendering, not logging
	l.Info("configured", "x", x)                      // ok: the configured logger
	_ = slog.New(slog.NewTextHandler(os.Stderr, nil)) // ok: building a logger writes nothing
	return fmt.Sprintf("x=%d", x)                     // ok: no output
}

func suppressed() {
	log.Println("migration shim") // dpvet:ignore noplainlog temporary bridge until the caller takes a Logger
}

// println shadows the builtin: calling it is not a finding.
func localPrintln(s string) {}

func shadowed() {
	localPrintln("fine")
}
