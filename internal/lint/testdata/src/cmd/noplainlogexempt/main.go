// Package main sits under cmd/: CLI output to the terminal is the
// product here, so noplainlog must stay silent.
package main

import (
	"fmt"
	"log"
	"log/slog"
)

func main() {
	fmt.Println("result") // ok: cmd/ is exempt
	slog.Info("up")       // ok: a daemon may log through the default logger
	log.Fatal("usage")    // ok: cmd/ flag-error path
}
