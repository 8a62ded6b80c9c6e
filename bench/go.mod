module colock/bench

go 1.22

require colock v0.0.0

replace colock => ../
