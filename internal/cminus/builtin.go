package cminus

import "math"

// Builtin is one of mini-C's library functions. The table below is the
// one place that says which names they are: a call to one is free of
// side effects for the analysis (Cetus's rule for math functions), the
// binder types it, and the engines evaluate its arguments as doubles,
// left to right, and call Go's math function. Parse refuses a function
// definition under a builtin's name, so a call's name means the same on
// every path.
type Builtin struct {
	// F1 and F2 are the Go math function of a one- and a two-argument
	// builtin; exactly one is set.
	F1 func(float64) float64
	F2 func(float64, float64) float64
	// Go is that function as emitted Go spells it.
	Go string
	// Int reports an int result, the function's value truncated toward
	// zero (abs); every other builtin returns double.
	Int bool
}

var builtins = map[string]*Builtin{
	"exp":   {F1: math.Exp, Go: "math.Exp"},
	"log":   {F1: math.Log, Go: "math.Log"},
	"sqrt":  {F1: math.Sqrt, Go: "math.Sqrt"},
	"fabs":  {F1: math.Abs, Go: "math.Abs"},
	"sin":   {F1: math.Sin, Go: "math.Sin"},
	"cos":   {F1: math.Cos, Go: "math.Cos"},
	"tan":   {F1: math.Tan, Go: "math.Tan"},
	"floor": {F1: math.Floor, Go: "math.Floor"},
	"ceil":  {F1: math.Ceil, Go: "math.Ceil"},
	"pow":   {F2: math.Pow, Go: "math.Pow"},
	"fmod":  {F2: math.Mod, Go: "math.Mod"},
	"fmin":  {F2: math.Min, Go: "math.Min"},
	"fmax":  {F2: math.Max, Go: "math.Max"},
	"abs":   {F1: math.Abs, Go: "math.Abs", Int: true},
}

// LookupBuiltin returns the builtin named name, or nil.
func LookupBuiltin(name string) *Builtin { return builtins[name] }

// Arity is the number of arguments the builtin takes.
func (b *Builtin) Arity() int {
	if b.F2 != nil {
		return 2
	}
	return 1
}

// Eval applies the builtin to Arity arguments. An Int builtin's caller
// truncates the result.
func (b *Builtin) Eval(args []float64) float64 {
	if b.F2 != nil {
		return b.F2(args[0], args[1])
	}
	return b.F1(args[0])
}
