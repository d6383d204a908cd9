package walltime

import . "time"

func dotImported() Time {
	return Now() // want `wall-clock time\.Now in modelled code`
}
