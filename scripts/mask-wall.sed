# Masks the host wall-clock text in `picbench` suite output so two runs
# can be diffed on their simulated numbers alone (see the golden CI job):
# the "[... completed in 3.3s wall time ...]" footers, and the right-aligned
# wall columns of abl-loopaware (wall/iter) and abl-scale (wall), whose
# values are Go durations printed with no space before the unit ("17ms",
# "1m2.5s") — simulated times always print as "7.7 s".
s/completed in [0-9.]+s wall time/completed in N wall time/
s/ +([0-9.]+(ns|µs|ms|s|m|h))+( |$)/ WALL\3/g
