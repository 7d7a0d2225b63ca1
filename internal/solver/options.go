package solver

// The user-settable Config fields, declared once. The CLIs bind them as
// flags (RegisterFlags), fsamd applies them as query parameters
// (SetOption), and every value passes Validate before a run, so each
// surface accepts the same names, parses them the same way, and rejects an
// unknown value with the same message.

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// option is one user-settable Config field.
type option struct {
	name  string // flag and query-parameter name
	usage string
	// noun, known and def describe an enumerated option: Validate rejects
	// a non-empty value outside known() as "unknown <noun>", and empty
	// selects def. known is nil for free-form options.
	noun  string
	known func() []string
	def   string
	// set parses v into c; get renders c's value the way set reads it,
	// empty for the zero value.
	set    func(c *Config, v string) error
	get    func(c *Config) string
	isBool bool
}

var options = []option{
	enumOption("engine", "engine", "analysis `engine`", Names, DefaultEngine,
		func(c *Config) *string { return &c.Engine }),
	enumOption("memmodel", "memory model", "memory consistency `model`", MemModels, DefaultMemModel,
		func(c *Config) *string { return &c.MemModel }),
	scalarOption("no-interleaving", "disable the interleaving analysis (use the procedure-level PCG)", strconv.ParseBool,
		func(c *Config) *bool { return &c.NoInterleaving }),
	scalarOption("no-valueflow", "disable the value-flow aliasing premise", strconv.ParseBool,
		func(c *Config) *bool { return &c.NoValueFlow }),
	scalarOption("no-lock", "disable the lock analysis", strconv.ParseBool,
		func(c *Config) *bool { return &c.NoLock }),
	scalarOption("membudget", "soft heap budget in `bytes` for the post-pre-analysis phases, 0 = unlimited",
		func(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) },
		func(c *Config) *uint64 { return &c.MemBudgetBytes }),
	scalarOption("steplimit", "worklist-pop `limit` per run, 0 = unlimited",
		func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) },
		func(c *Config) *int64 { return &c.StepLimit }),
}

func enumOption(name, noun, usage string, known func() []string, def string, field func(*Config) *string) option {
	return option{name: name, noun: noun, usage: usage, known: known, def: def,
		set: func(c *Config, v string) error { *field(c) = v; return nil },
		get: func(c *Config) string { return *field(c) },
	}
}

func scalarOption[T comparable](name, usage string, parse func(string) (T, error), field func(*Config) *T) option {
	var zero T
	_, isBool := any(zero).(bool)
	return option{name: name, usage: usage, isBool: isBool,
		set: func(c *Config, v string) error {
			x, err := parse(v)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			*field(c) = x
			return nil
		},
		get: func(c *Config) string {
			if *field(c) == zero {
				return ""
			}
			return fmt.Sprint(*field(c))
		},
	}
}

// OptionNames lists the user-settable options in table order: the flag
// names RegisterFlags binds and the names SetOption accepts.
func OptionNames() []string {
	out := make([]string, len(options))
	for i, o := range options {
		out[i] = o.name
	}
	return out
}

// SetOption parses and validates value into the option called name.
func (c *Config) SetOption(name, value string) error {
	for i := range options {
		if options[i].name == name {
			return options[i].apply(c, value)
		}
	}
	return fmt.Errorf("unknown option %q (known: %s)", name, strings.Join(OptionNames(), ", "))
}

// RegisterFlags binds every option to fs as a flag that writes into c.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	for i := range options {
		o := &options[i]
		usage := o.usage
		if o.known != nil {
			usage = fmt.Sprintf("%s: %s (default %s)", usage, strings.Join(o.known(), ", "), o.def)
		}
		fs.Var(optionFlag{c, o}, o.name, usage)
	}
}

// optionFlag adapts one option of one Config to flag.Value.
type optionFlag struct {
	c *Config
	o *option
}

func (f optionFlag) String() string {
	if f.c == nil {
		return "" // the flag package's zero-value probe
	}
	return f.o.get(f.c)
}
func (f optionFlag) Set(v string) error { return f.o.apply(f.c, v) }
func (f optionFlag) IsBoolFlag() bool   { return f.o != nil && f.o.isBool }

// apply parses v into c and validates the result.
func (o *option) apply(c *Config, v string) error {
	if err := o.set(c, v); err != nil {
		return err
	}
	return o.check(c)
}

// check rejects an enumerated option's value outside its known set (empty
// selects the default and is always valid). It is the one place an unknown
// engine or memory model is reported.
func (o *option) check(c *Config) error {
	if v := o.get(c); o.known != nil && v != "" && !slices.Contains(o.known(), v) {
		return fmt.Errorf("unknown %s %q (known: %s)", o.noun, v, strings.Join(o.known(), ", "))
	}
	return nil
}

// Validate reports the first option whose value is unknown. Every run and
// every fsamd request passes it before any phase is scheduled.
func (c Config) Validate() error {
	for i := range options {
		if err := options[i].check(&c); err != nil {
			return err
		}
	}
	return nil
}
