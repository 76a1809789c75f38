module leosim/bench

go 1.22

require leosim v0.0.0

replace leosim => ../
