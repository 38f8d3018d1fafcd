// Command lumina is the one binary for the paper's whole loop: run a
// scenario (run), inspect what it captured (trace), keep and replay the
// regression corpus (corpus), search for anomalies (fuzz), serve runs
// over HTTP (serve) and regenerate the paper's tables (bench).
//
// `lumina help` lists every subcommand with its flags and `lumina
// <command> -h` describes each flag; both are rendered from the
// commands' flag sets. The exit status is 0 on success, 2 for a usage
// error and 1 for any other failure, corpus drift included.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/version"
)

// command is one node of the subcommand tree. args names its positional
// arguments, which exec counts: "cfg.yaml" is exactly one, a trailing
// "..." one or more. bind declares the command's flags on fs and returns
// the function that runs it on the positional arguments; it has no
// other effect, so the usage renderer calls it too. A command without
// bind only groups its subcommands.
type command struct {
	name, args, summary string
	bind                func(fs *flag.FlagSet) func(args []string) error
	subs                []*command
}

// commands builds the whole tree. It is a function rather than a
// variable because help renders the tree that contains it.
func commands() *command {
	return &command{name: "lumina", summary: "print the build stamp; every subcommand takes -h for its flags", bind: bindRoot, subs: []*command{
		{name: "run", args: "cfg.yaml", summary: "run one scenario: traffic, trace integrity, analyzer verdicts", bind: bindRun},
		{name: "trace", summary: "list a captured pcap, re-derive ITER rounds, re-run trace analyzers", bind: bindTrace, subs: []*command{
			{name: "timeline", summary: "render a pcap as Chrome trace-event JSON (Perfetto)", bind: bindTimeline},
			{name: "explain", summary: "print the causal chain each injected event provoked", bind: bindExplain},
			{name: "hops", summary: "print a run's per-hop in-band telemetry (int.json)", bind: bindHops},
			{name: "coverage", summary: "print a coverage.json or frontier.json, or diff two", bind: bindTraceCoverage},
		}},
		{name: "corpus", subs: []*command{
			{name: "add", args: "cfg.yaml...", summary: "admit scenarios into the regression corpus", bind: bindCorpusAdd},
			{name: "minimize", args: "cfg.yaml", summary: "delta-debug a scenario to a 1-minimal reproducer", bind: bindMinimize},
			{name: "replay", summary: "replay every entry against its goldens; fails on drift", bind: bindReplay},
			{name: "coverage", summary: "report each profile's corpus coverage frontier", bind: bindCorpusCoverage},
			{name: "list", summary: "list corpus entries", bind: bindList},
		}},
		{name: "fuzz", summary: "genetic search (§4, Algorithm 1); -corpus admits minimized findings", bind: bindFuzz},
		{name: "serve", subs: []*command{
			{name: "daemon", summary: "serve runs over HTTP, answering repeats from the result cache", bind: bindDaemon},
			{name: "run", args: "cfg.yaml", summary: "submit a scenario to a daemon, wait, fetch its artifacts", bind: bindServeRun},
			{name: "status", args: "runID", summary: "print one run's state and verdicts", bind: bindStatus},
			{name: "artifacts", args: "runID", summary: "download a finished run's artifacts", bind: bindArtifacts},
			{name: "stats", summary: "print a daemon's version, run count and cache counters", bind: bindStats},
		}},
		{name: "bench", summary: "regenerate the paper's tables and figures", bind: bindBench},
		{name: "help", summary: "print this list", bind: bindHelp},
	}}
}

func main() {
	os.Exit(exitCode(commands().exec("lumina", os.Args[1:])))
}

// exec runs the command args name below c, reached by the command
// words in path: it parses the rest of args with that command's flags
// and runs it. The flag set reports its own parse errors and -h; exec
// reports the usage errors a command returns.
func (c *command) exec(path string, args []string) error {
	if len(args) > 0 {
		for _, s := range c.subs {
			if s.name == args[0] {
				return s.exec(path+" "+s.name, args[1:])
			}
		}
	}
	fs, run := c.flags(path)
	err := fs.Parse(args)
	want, n := strings.Fields(c.args), fs.NArg()
	switch {
	case errors.Is(err, flag.ErrHelp):
		return nil
	case err != nil:
		return usageError{err}
	case len(c.subs) > 0 && n > 0:
		err = usagef("unknown subcommand %q", fs.Arg(0))
	case n != len(want) && !(strings.HasSuffix(c.args, "...") && n >= len(want)):
		err = usagef("want %q, got %d argument(s)", c.args, n)
	default:
		err = run(fs.Args())
	}
	if errors.As(err, new(usageError)) {
		fmt.Fprintf(fs.Output(), "%s: %v\n", path, err)
		fs.Usage()
	}
	return err
}

// flags binds c's flags to a new flag set and returns it with the
// function that runs c.
func (c *command) flags(path string) (*flag.FlagSet, func([]string) error) {
	fs := flag.NewFlagSet(path, flag.ContinueOnError)
	fs.Usage = func() { c.usage(fs.Output(), path) }
	if c.bind == nil {
		return fs, func([]string) error { return usagef("missing subcommand") }
	}
	return fs, c.bind(fs)
}

// usageError is a mistake in how a command was invoked.
type usageError struct{ error }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// exitCode is the one place an error becomes a process status: 2 for a
// usage error, which exec has already reported with the command's
// usage, and 1 for any other failure, corpus drift included.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	fmt.Fprintln(os.Stderr, "lumina:", err)
	return 1
}

func bindRoot(fs *flag.FlagSet) func([]string) error {
	showVersion := fs.Bool("version", false, "print the build stamp (also embedded in cache keys and summary.json) and exit")
	return func([]string) error {
		if !*showVersion {
			return usagef("missing subcommand")
		}
		fmt.Println("lumina", version.String())
		return nil
	}
}

func bindHelp(*flag.FlagSet) func([]string) error {
	return func([]string) error {
		commands().help(os.Stdout, "lumina")
		return nil
	}
}

// help writes the synopsis and summary of every runnable command in c's
// tree: the text of `lumina help` and of README's command list.
func (c *command) help(w io.Writer, path string) {
	if c.bind != nil {
		fmt.Fprintf(w, "%s\n    %s\n", c.synopsis(path), c.summary)
	}
	for _, s := range c.subs {
		s.help(w, path+" "+s.name)
	}
}

// usage writes help for c's tree, then c's own flags in detail.
func (c *command) usage(w io.Writer, path string) {
	c.help(w, path)
	fmt.Fprintln(w)
	fs, _ := c.flags(path)
	fs.SetOutput(w)
	fs.PrintDefaults()
}

// synopsis renders path, c's flags and its positional arguments,
// wrapped before 80 columns.
func (c *command) synopsis(path string) string {
	var words []string
	fs, _ := c.flags(path)
	fs.VisitAll(func(f *flag.Flag) {
		w := "[-" + f.Name
		if name, _ := flag.UnquoteUsage(f); name != "" {
			w += " " + name
		}
		words = append(words, w+"]")
	})
	if c.args != "" {
		words = append(words, c.args)
	}
	lines := []string{path}
	for _, w := range words {
		if last := len(lines) - 1; len(lines[last])+1+len(w) < 80 {
			lines[last] += " " + w
		} else {
			lines = append(lines, "        "+w)
		}
	}
	return strings.Join(lines, "\n")
}

// The flags below mean the same thing under every command that takes
// them, so each is declared once, here.

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "engine worker-pool size: 0 = one per CPU, 1 = serial (output is identical for every value)")
}

func corpusFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("corpus", def, "regression corpus `dir`")
}

func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "127.0.0.1:8642", "daemon `host:port`")
}

// deadlineFlag declares -deadline in whole seconds. A count whose
// nanoseconds overflow sim.Duration is a usage error: wrapped, it would
// turn negative and silently become the default deadline.
func deadlineFlag(fs *flag.FlagSet) *sim.Duration {
	d := 600 * sim.Second
	fs.Func("deadline", "virtual-time deadline in `seconds` (default 600)", func(s string) error {
		n, err := strconv.ParseInt(s, 0, 64)
		if err == nil && (n > math.MaxInt64/int64(sim.Second) || n < math.MinInt64/int64(sim.Second)) {
			err = fmt.Errorf("%d seconds overflow the virtual clock", n)
		}
		d = sim.Duration(n) * sim.Second
		return err
	})
	return &d
}

// observeFlags declares the observe-only instruments: neither changes
// a verdict or the summary digest, each adds one artifact.
func observeFlags(fs *flag.FlagSet) (intFlag, covFlag *bool) {
	return fs.Bool("int", false, "in-band telemetry: per-hop INT stamps joined to lineage chains (int.json)"),
		fs.Bool("coverage", false, "behavioral coverage: FSM/match-action (site, transition) pairs (coverage.json)")
}

func profilesFlag(fs *flag.FlagSet) *[]string {
	return csvFlag(fs, "profiles", "comma-separated NIC `models` (default: all)",
		func(s string) (string, error) { _, err := rnic.ProfileByName(s); return s, err })
}

// cacheFlag declares a result-cache directory and its size bound, and
// returns the directory and the function that opens the cache (nil when
// no directory was given). A bound whose bytes a shift would wrap, or a
// negative one, is a usage error: either would silently become another
// cap, or none.
func cacheFlag(fs *flag.FlagSet) (*string, func() (*resultcache.Cache, error)) {
	dir := fs.String("cache", "", "result-cache `dir`: cells cached for this build skip simulation, fresh ones are cached (empty disables)")
	maxMB := fs.Int64("cache-max-mb", 0, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
	return dir, func() (*resultcache.Cache, error) {
		if *maxMB < 0 || *maxMB > math.MaxInt64>>20 {
			return nil, usagef("-cache-max-mb %d is out of range [0, %d]", *maxMB, int64(math.MaxInt64>>20))
		}
		if *dir == "" {
			return nil, nil
		}
		return resultcache.Open(*dir, *maxMB<<20)
	}
}

// csvFlag declares a comma-separated list flag whose items check
// validates and normalizes; empty items are skipped.
func csvFlag(fs *flag.FlagSet, name, usage string, check func(string) (string, error)) *[]string {
	var items []string
	fs.Func(name, usage, func(s string) error {
		items = nil
		for _, item := range strings.Split(s, ",") {
			if item = strings.TrimSpace(item); item == "" {
				continue
			}
			v, err := check(item)
			if err != nil {
				return err
			}
			items = append(items, v)
		}
		return nil
	})
	return &items
}

// writeFile writes what write produces to path by way of a temporary
// file and a rename, so a failed write never leaves a partial file.
func writeFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
