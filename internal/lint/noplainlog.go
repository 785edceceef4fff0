package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerNoPlainLog keeps all serving-layer output flowing through
// the configured *slog.Logger (Config.Log): the standard log package,
// fmt's implicit-stdout printers, the println/print builtins and
// log/slog's package-level functions (which write through the process
// default logger, bypassing Config.Log) are banned everywhere except
// cmd/ (flag parsing and CLI result output legitimately write to the
// terminal) and examples/. fmt.Fprint* to an explicit writer stays
// legal — that is rendering, not logging.
var AnalyzerNoPlainLog = &Analyzer{
	Name: "noplainlog",
	Doc:  "no log.Printf/fmt.Print*/println/slog.Info outside cmd/ and examples/",
	Run:  runNoPlainLog,
}

var plainFmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

var slogDefaultLoggers = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true, "Log": true, "LogAttrs": true,
	"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
	"Default": true,
}

func runNoPlainLog(p *Pass) {
	if isRelUnder(p.RelPath, "cmd") || isRelUnder(p.RelPath, "examples") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if id.Name == "println" || id.Name == "print" {
					// A user-defined println resolves to its own
					// object; the builtin resolves to *types.Builtin.
					if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
						p.Reportf(call.Pos(), "builtin %s: route output through a log/slog Logger", id.Name)
					}
				}
				return true
			}
			pkgPath, name, ok := pkgFunc(p, call)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "log":
				p.Reportf(call.Pos(), "log.%s: route output through a log/slog Logger", name)
			case pkgPath == "fmt" && plainFmtPrinters[name]:
				p.Reportf(call.Pos(), "fmt.%s writes to process stdout: route output through a log/slog Logger (or fmt.Fprint* to an explicit writer)", name)
			case pkgPath == "log/slog" && slogDefaultLoggers[name]:
				p.Reportf(call.Pos(), "slog.%s writes through the process default logger: log through the configured *slog.Logger", name)
			}
			return true
		})
	}
}
