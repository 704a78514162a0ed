package exp

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpimon/internal/mpi"
	"mpimon/internal/telemetry"
)

// experiment is one row of the cmd/exp table: `exp <name> [flags]`.
type experiment struct {
	name string
	doc  string // one line, shown by `exp` and `exp <name> -h`
	// setup registers the experiment's own flags on fs and returns the
	// function that runs it once fs is parsed and the shared flags are in
	// force, writing the result table to w.
	setup func(fs *flag.FlagSet) func(w io.Writer) error
}

// Main is cmd/exp: it runs the experiment named by args[0] with the flags
// that follow and returns the process exit status (0 done, 1 the experiment
// failed, 2 usage). -telemetry, -cpuprofile and -memprofile are registered
// here, once, for every experiment.
func Main(args []string, stdout, stderr io.Writer) int {
	return runTable(experiments, args, stdout, stderr)
}

func runTable(table []experiment, args []string, stdout, stderr io.Writer) int {
	usage := func(w io.Writer) {
		fmt.Fprintln(w, "usage: exp <experiment> [flags]   (exp <experiment> -h lists the flags)")
		for _, e := range table {
			fmt.Fprintf(w, "  %-16s %s\n", e.name, e.doc)
		}
	}
	// Both levels parse with the flag package, so `exp -h` and
	// `exp <experiment> -h` accept the same spellings, print to stderr and
	// exit 0.
	top := flag.NewFlagSet("exp", flag.ContinueOnError)
	top.SetOutput(stderr)
	top.Usage = func() { usage(stderr) }
	if err := top.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if top.NArg() == 0 {
		usage(stderr)
		return 2
	}
	args = top.Args()
	var e *experiment
	for i := range table {
		if table[i].name == args[0] {
			e = &table[i]
		}
	}
	if e == nil {
		fmt.Fprintf(stderr, "exp: unknown experiment %q\n", args[0])
		usage(stderr)
		return 2
	}

	fs := flag.NewFlagSet("exp "+e.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: exp %s [flags]\n%s\n", e.name, e.doc)
		fs.PrintDefaults()
	}
	telem := fs.String("telemetry", "", "write a Chrome trace-event file of the run's telemetry spans")
	cpuprof := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprof := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	run := e.setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "exp %s: unexpected argument %q\n", e.name, fs.Arg(0))
		return 2
	}
	if err := runShared(*telem, *cpuprof, *memprof, run, stdout); err != nil {
		fmt.Fprintf(stderr, "exp %s: %v\n", e.name, err)
		return 1
	}
	return 0
}

// runShared puts the shared flags in force around one experiment run: a
// telemetry hub becomes an option of every world the drivers build, and
// the profiles are started. The profiles and the Chrome trace are completed
// by defer, so a run that fails still leaves them whole; the run's own
// error takes precedence over theirs.
func runShared(telem, cpuprof, memprof string, run func(io.Writer) error, stdout io.Writer) (err error) {
	defer func(prev []mpi.Option) { worldOptions = prev }(worldOptions)
	worldOptions = nil
	var tel *telemetry.Telemetry
	if telem != "" {
		tel = telemetry.New()
		worldOptions = []mpi.Option{mpi.WithTelemetry(tel)}
	}
	stopProf, err := ProfileSetup(cpuprof, memprof)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
		if tel == nil {
			return
		}
		if terr := writeChromeTrace(telem, tel); err == nil {
			err = terr
		}
	}()
	return run(stdout)
}

func writeChromeTrace(path string, tel *telemetry.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, tel.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
