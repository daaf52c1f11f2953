// bank: a concurrent bank simulation whose execution is logged as a
// trace and then analyzed. Tellers transfer money between accounts
// under per-account locks; an "audit" thread sums balances. One buggy
// fast-path deposit skips the lock — the SHB analysis pinpoints it.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"math/rand"
	"slices"

	"treeclock"
)

const (
	accounts = 8
	tellers  = 4
	rounds   = 2000
)

// The audit thread is the last thread id; variable i is account i's
// balance; lock i guards account i.
func buildTrace() *treeclock.Trace {
	r := rand.New(rand.NewSource(7))
	auditor := treeclock.ThreadID(tellers)
	var events []treeclock.Event

	transfer := func(t treeclock.ThreadID, from, to int32) {
		// Lock ordering by account id avoids deadlock in a real
		// program and keeps the trace well formed here.
		a, b := from, to
		if a > b {
			a, b = b, a
		}
		events = append(events,
			treeclock.Event{T: t, Obj: a, Kind: treeclock.Acquire},
			treeclock.Event{T: t, Obj: b, Kind: treeclock.Acquire},
			treeclock.Event{T: t, Obj: from, Kind: treeclock.Read},
			treeclock.Event{T: t, Obj: from, Kind: treeclock.Write},
			treeclock.Event{T: t, Obj: to, Kind: treeclock.Read},
			treeclock.Event{T: t, Obj: to, Kind: treeclock.Write},
			treeclock.Event{T: t, Obj: b, Kind: treeclock.Release},
			treeclock.Event{T: t, Obj: a, Kind: treeclock.Release},
		)
	}
	buggyDeposit := func(t treeclock.ThreadID, acct int32) {
		// BUG: read-modify-write without taking the account lock.
		events = append(events,
			treeclock.Event{T: t, Obj: acct, Kind: treeclock.Read},
			treeclock.Event{T: t, Obj: acct, Kind: treeclock.Write},
		)
	}
	audit := func() {
		for a := int32(0); a < accounts; a++ {
			events = append(events,
				treeclock.Event{T: auditor, Obj: a, Kind: treeclock.Acquire},
				treeclock.Event{T: auditor, Obj: a, Kind: treeclock.Read},
				treeclock.Event{T: auditor, Obj: a, Kind: treeclock.Release},
			)
		}
	}

	for i := 0; i < rounds; i++ {
		t := treeclock.ThreadID(r.Intn(tellers))
		from := int32(r.Intn(accounts))
		to := int32(r.Intn(accounts))
		if from == to {
			to = (to + 1) % accounts
		}
		switch {
		case r.Intn(100) == 0: // rare buggy fast path
			buggyDeposit(t, from)
		case r.Intn(50) == 0:
			audit()
		default:
			transfer(t, from, to)
		}
	}
	return &treeclock.Trace{
		Meta: treeclock.Meta{
			Name:    "bank",
			Threads: tellers + 1,
			Locks:   accounts,
			Vars:    accounts,
		},
		Events: events,
	}
}

func main() {
	tr := buildTrace()
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	stats := treeclock.ComputeTraceStats(tr)
	fmt.Printf("bank simulation: %d events, %d tellers + 1 auditor, %d accounts\n",
		stats.Events, tellers, accounts)

	res, err := treeclock.RunStreamSource("shb-tree", treeclock.NewTraceReplayer(tr))
	if err != nil {
		panic(err)
	}

	sum := res.Summary
	if sum.Total == 0 {
		fmt.Println("no races found")
		return
	}
	fmt.Printf("found %d racy pairs on %d account(s) — the unlocked fast-path deposit:\n",
		sum.Total, sum.Vars)
	for i, race := range res.Samples {
		if i == 6 {
			fmt.Println("  ...")
			break
		}
		fmt.Println(" ", race)
	}
	// Every pair is retained as a sample here (far fewer than the
	// sample cap), so the samples name every account involved.
	fmt.Println("\naccounts involved:")
	var accounts []int32
	for _, race := range res.Samples {
		if !slices.Contains(accounts, race.Var) {
			accounts = append(accounts, race.Var)
		}
	}
	slices.Sort(accounts)
	for _, x := range accounts {
		fmt.Printf("  account %d\n", x)
	}
}
