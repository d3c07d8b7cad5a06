ietrel v1
D = 2
kind = perm-lambda
pi = 4, 3, 2, 1
lengths = 1/8*sqrt(2), 1/4, 1/4, 1/2-1/8*sqrt(2)
