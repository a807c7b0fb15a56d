"""Rational points of the unit circle and the unit sphere, used only by the tests to run the kernel exactly."""


def circle_point(t):
    """(cos, sin) of the angle 2 atan(t), exactly for a rational t."""
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def sphere_point(u, v):
    """A move (q0, q1, q3) on the unit sphere: the inverse stereographic image of a rational (u, v)."""
    n = u * u + v * v + 1
    return 2 * u / n, 2 * v / n, (u * u + v * v - 1) / n
