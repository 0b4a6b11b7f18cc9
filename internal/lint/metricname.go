package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// MetricNameAnalyzer checks telemetry registrations: every
// counter/gauge/histogram family registered against a
// telemetry.Registry must use a statically-known diads_* snake_case
// name. A fmt.Sprintf-built family name is invisible to the tests'
// family-prefix checks and to anyone grepping the exposition, and a
// name outside diads_* breaks the repo-wide convention the /metrics
// surface documents. Dimensions belong in labels, not the family name.
var MetricNameAnalyzer = &Analyzer{
	Name:    "metricname",
	Doc:     "telemetry registration with a non-literal or non-diads_* family name",
	Domains: []Domain{DomainDeterminism, DomainService, DomainTool},
	Run:     runMetricName,
}

// registrationMethods are the telemetry.Registry methods that register
// a metric family; the first argument is the family name.
var registrationMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterFunc": true, "GaugeFunc": true,
}

func runMetricName(pass *Pass) {
	telemetryPath := pass.Config.modulePath() + "/internal/telemetry"
	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos()).Filename) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !registrationMethods[fn.Name()] {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if fn.Pkg() == nil || fn.Pkg().Path() != telemetryPath {
				return true
			}
			name := call.Args[0]
			v := constValue(pass, name)
			if v == nil || v.Kind() != constant.String {
				pass.Reportf(name.Pos(),
					"telemetry %s family name is not a compile-time constant: /metrics must stay statically enumerable (put dimensions in labels)",
					fn.Name())
				return true
			}
			if s := constant.StringVal(v); !validMetricName(s) {
				pass.Reportf(name.Pos(),
					"telemetry family name %q is not diads_* snake_case", s)
			}
			return true
		})
	}
}

// validMetricName accepts diads_* snake_case family names.
func validMetricName(s string) bool {
	const prefix = "diads_"
	if len(s) <= len(prefix) || s[:len(prefix)] != prefix {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return true
}
