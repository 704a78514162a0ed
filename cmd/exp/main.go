// Command exp runs the paper's experiments: `exp <experiment> [flags]`
// regenerates one figure or table (collopt is Fig. 5, hwcounters Fig. 2/3,
// overhead Fig. 4, reorder-heatmap Fig. 6, nascg Fig. 7, treematch-scale
// Table 1) or one of the repository's own studies (engine-scale,
// gather-scale, online, guidelines, faults, serve, commitagg-sweep). `exp`
// alone lists them; every experiment takes -telemetry, -cpuprofile and
// -memprofile besides its own flags (`exp <experiment> -h`). The table
// lives in internal/exp.
package main

import (
	"os"

	"mpimon/internal/exp"
)

func main() {
	os.Exit(exp.Main(os.Args[1:], os.Stdout, os.Stderr))
}
