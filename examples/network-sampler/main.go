// Network sampler (the paper's Sec. 6.1 and the network-prediction use
// case of Sec. 7): observe the same traffic twice — through the node's
// simulated NIC transmit counter (port_xmit_data) and through the
// introspection monitoring library — and print the two 10 ms series side
// by side. The monitoring series additionally knows *who* the bytes went
// to, which the hardware counter cannot tell.
//
// Run with: go run ./examples/network-sampler
package main

import (
	"fmt"
	"log"
	"time"

	"mpimon"
)

func main() {
	mach := mpimon.IBPair()
	world, err := mpimon.NewWorld(mach, 2,
		mpimon.WithPlacement([]int{0, mach.Topo.LeavesPerNode()})) // one rank per node
	if err != nil {
		log.Fatal(err)
	}
	world.Network().SetEventLogging(true)

	const (
		horizon = 4 * time.Second
		period  = 10 * time.Millisecond
		stopTag = 7
	)
	var collector mpimon.TrafficCollector

	err = world.Run(func(c *mpimon.Comm) error {
		env, err := mpimon.InitMonitoring(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		p := c.Proc()
		if c.Rank() == 0 {
			p.Monitor().AddRecorder(collector.Record)
			rng := p.Rand()
			for p.Clock() < horizon {
				size := 1<<10 + rng.Intn(800<<10)
				if err := c.SendN(1, 0, size); err != nil {
					return err
				}
				p.Sleep(50*time.Millisecond + time.Duration(rng.Int63n(int64(950*time.Millisecond))))
			}
			// The collector records this 0-byte stop message too; it adds nothing.
			if err := c.SendN(1, stopTag, 0); err != nil {
				return err
			}
		} else {
			for {
				st, err := c.Recv(0, mpimon.AnyTag, nil)
				if err != nil {
					return err
				}
				if st.Tag == stopTag {
					break
				}
			}
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		return s.Free()
	})
	if err != nil {
		log.Fatal(err)
	}

	hw := mpimon.BinTraffic(mpimon.NICEvents(world.Network(), 0), period, horizon)
	mon := mpimon.BinTraffic(collector.Events(), period, horizon)
	fmt.Println("  t(s)   NIC(KB)   introspection(KB)")
	for i := range hw {
		if hw[i].Bytes == 0 && mon[i].Bytes == 0 {
			continue
		}
		fmt.Printf("%6.2f  %8.1f  %8.1f\n",
			hw[i].T.Seconds(), float64(hw[i].Bytes)/1000, float64(mon[i].Bytes)/1000)
	}
	ch, cm := mpimon.CumulativeTraffic(hw), mpimon.CumulativeTraffic(mon)
	fmt.Printf("total: NIC %.1f KB, introspection %.1f KB\n",
		float64(ch[len(ch)-1].Bytes)/1000, float64(cm[len(cm)-1].Bytes)/1000)
}
