/* One collapsed Gibbs sweep of the Dirichlet-process Poisson mixture, and
 * the new-datum weights that the predictive table and the online gate read.
 *
 * The steps and weights are those of ``tests/sampler_oracle.py``, and the
 * tests compare the two with ``==``.  Every floating-point operation is the
 * one Python performs, in the same order: ``lgamma`` is CPython 3.11's own
 * (``m_lgamma``), and ``exp``, ``log`` and ``log1p`` are the C library's,
 * which ``math`` calls too.  Build with ``-O2 -ffp-contract=off`` and never
 * with ``-ffast-math``, so that no operation is fused or reordered.
 *
 * The caller allocates every buffer; the kernel keeps no state between calls.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* CPython 3.11's m_lgamma (Modules/mathmodule.c) for positive arguments:
 * Lanczos' approximation with the 13-term sum and g below. */
#define LANCZOS_N 13
static const double lanczos_g = 6.024680040776729583740234375;
static const double lanczos_num_coeffs[LANCZOS_N] = {
    23531376880.410759688572007674451636754734846804940,
    42919803642.649098768957899047001988850926355848959,
    35711959237.355668049440185451547166705960488635843,
    17921034426.037209699919755754458931112671403265390,
    6039542586.3520280050642916443072979210699388420708,
    1439720407.3117216736632230727949123939715485786772,
    248874557.86205415651146038641322942321632125127801,
    31426415.585400194380614231628318205362874684987640,
    2876370.6289353724412254090516208496135991145378768,
    186056.26539522349504029498971604569928220784236328,
    8071.6720023658162106380029022722506138218516325024,
    210.82427775157934587250973392071336271166969580291,
    2.5066282746310002701649081771338373386264310793408,
};
static const double lanczos_den_coeffs[LANCZOS_N] = {
    0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0, 45995730.0,
    13339535.0, 2637558.0, 357423.0, 32670.0, 1925.0, 66.0, 1.0,
};

static double lanczos_sum(double x)
{
    double num = 0.0, den = 0.0;
    int i;
    if (x < 5.0) {
        for (i = LANCZOS_N; --i >= 0;) {
            num = num * x + lanczos_num_coeffs[i];
            den = den * x + lanczos_den_coeffs[i];
        }
    } else {
        for (i = 0; i < LANCZOS_N; i++) {
            num = num / x + lanczos_num_coeffs[i];
            den = den / x + lanczos_den_coeffs[i];
        }
    }
    return num / den;
}

double aeburst_lgamma(double x)
{
    double r;
    if (x == floor(x) && x <= 2.0)
        return 0.0; /* lgamma(1) = lgamma(2) = 0 */
    if (x < 1e-20)
        return -log(x);
    r = log(lanczos_sum(x)) - lanczos_g;
    r += (x - 0.5) * (log(x + lanczos_g - 0.5) - 1);
    return r;
}

/* ``distributions.predictive_terms`` of a cluster of ``n`` members summing
 * to ``s``, with ``log_c`` its log prior mass. */
typedef struct {
    double log_c, r, lgamma_r, r_log_p, log1p_g;
} terms;

static terms predictive_terms(double shape, double rate, double log_c, int64_t n, int64_t s)
{
    terms t;
    double gamma_rate = rate + (double)n;
    t.log_c = log_c;
    t.r = shape + (double)s;
    t.log1p_g = log1p(gamma_rate);
    t.lgamma_r = aeburst_lgamma(t.r);
    t.r_log_p = t.r * (log(gamma_rate) - t.log1p_g);
    return t;
}

/* ``distributions.log_predictive``, term for term. */
static double log_predictive(const terms *t, double x, double lgamma_x1)
{
    return t->log_c + aeburst_lgamma(x + t->r) - t->lgamma_r - lgamma_x1 + t->r_log_p
        - x * t->log1p_g;
}

/* One row of the caller's cluster table, in the order of
 * ``MixtureState.clusters``. */
typedef struct {
    int64_t id, n, s, created_at;
} cluster;

/* What the sweep knows about one live cluster while it visits a run of
 * equal counts x.  Every entry is a pure function of the cluster's (n, s)
 * and x, so reusing one is exact. */
typedef struct {
    terms at;      /* the cluster's terms */
    terms off;     /* its terms without one datum of count x */
    double at_w;   /* log weight of x under ``at`` */
    double off_w;  /* log weight of x under ``off``; NaN while ``off`` is unknown */
    /* The step of a datum leaving this cluster: it stays when
     * lo <= u * total < hi, and adds ``stay`` to the joint.  total is 0
     * while the step is unknown. */
    double lo, hi, total, stay;
    /* The current step's log weight, its max-subtracted exponential and
     * the cumulative weight of this slot; slot k holds NEW's. */
    double log_w, raw, cum;
} slot;

/* Doubles of work space per slot. */
const int64_t aeburst_slot_doubles = sizeof(slot) / sizeof(double);

/* The log weights of x over the live clusters in order, then NEW, for a
 * datum that left slot ``j`` (-1 if its cluster was deleted), their
 * max-subtracted exponentials and the running sum of those from 0.0, as
 * ``tests/sampler_oracle.exp_weights`` writes it.  Stores the first slot of
 * the largest log weight in ``*top`` and returns the total, slot k's ``cum``. */
static double step_weights(slot *sl, int64_t k, int64_t j, double new_w, int64_t *top)
{
    double acc = 0.0;
    int64_t m;
    for (m = 0; m < k; m++)
        sl[m].log_w = m == j ? sl[m].off_w : sl[m].at_w;
    sl[k].log_w = new_w;
    for (*top = 0, m = 1; m <= k; m++)
        if (sl[m].log_w > sl[*top].log_w)
            *top = m;
    for (m = 0; m <= k; m++) {
        sl[m].raw = exp(sl[m].log_w - sl[*top].log_w);
        acc += sl[m].raw;
        sl[m].cum = acc;
    }
    return acc;
}

/* The new-datum weights of ``n_x`` counts over the ``k`` live clusters of
 * ``cl``, then NEW, as the sweep computes them.  The counts follow the k
 * rows of ``cl``; each is replaced by its greedy pick, the first slot of its
 * largest log weight.  Row i of ``out`` holds count i's k + 1 probabilities
 * and row n_x + i their running sums, then work space for k + 1 slots. */
void aeburst_weights(int64_t n_x, cluster *cl, int64_t k, double alpha, double shape,
                     double rate, double *out)
{
    const terms fresh = predictive_terms(shape, rate, log(alpha), 0, 0);
    int64_t *xs = (int64_t *)(cl + k);
    double *cums = out + n_x * (k + 1);
    slot *sl = (slot *)(cums + n_x * (k + 1));
    int64_t i, m;
    for (m = 0; m < k; m++)
        sl[m].at = predictive_terms(shape, rate, log((double)cl[m].n), cl[m].n, cl[m].s);
    for (i = 0; i < n_x; i++, out += k + 1, cums += k + 1) {
        double xd = (double)xs[i], lgamma_x1 = aeburst_lgamma((double)(xs[i] + 1)), total;
        for (m = 0; m < k; m++)
            sl[m].at_w = log_predictive(&sl[m].at, xd, lgamma_x1);
        total = step_weights(sl, k, -1, log_predictive(&fresh, xd, lgamma_x1), &xs[i]);
        for (m = 0; m <= k; m++) {
            out[m] = sl[m].raw / total;
            cums[m] = sl[m].cum;
        }
    }
}

/* One sweep over ``n_data`` data in the scan ``order``: the t-th datum
 * visited takes ``uniforms[t]``.  The first ``k`` rows of ``cl`` are
 * the live clusters; ``assign`` holds each datum's cluster id.  Both
 * ``cl`` and ``sl`` hold room for k + n_data + 1 clusters.  Updates
 * ``assign``, ``cl`` and ``*next_id`` in place, stores the joint log weight
 * and the flips, and returns the new k, or -1 if a datum's cluster is not
 * among the k. */
int64_t aeburst_sweep(int64_t n_data, const int64_t *data, const int64_t *order,
                      const double *uniforms, int64_t *assign, cluster *cl, int64_t k,
                      double alpha, double shape, double rate, slot *sl, int64_t *next_id,
                      double *joint_out, int64_t *flips_out)
{
    const terms fresh = predictive_terms(shape, rate, log(alpha), 0, 0);
    double joint = 0.0, xd = 0.0, lgamma_x1 = 0.0, new_w = 0.0;
    int64_t flips = 0, x = -1, t, m, j = 0, top;

    for (m = 0; m < k; m++)
        sl[m].at = predictive_terms(shape, rate, log((double)cl[m].n), cl[m].n, cl[m].s);
    for (t = 0; t < n_data; t++) {
        int64_t i = order[t], left = assign[i], idx;
        double target, total;
        slot *s;
        if (t == 0 || data[i] != x) {
            /* A new run: every weight is of the new count. */
            x = data[i];
            xd = (double)x;
            lgamma_x1 = aeburst_lgamma((double)(x + 1));
            new_w = log_predictive(&fresh, xd, lgamma_x1);
            for (m = 0; m < k; m++) {
                sl[m].at_w = log_predictive(&sl[m].at, xd, lgamma_x1);
                sl[m].off_w = NAN;
                sl[m].total = 0.0;
            }
        }
        if (j >= k || cl[j].id != left)
            for (j = 0; j < k && cl[j].id != left; j++)
                ;
        if (j == k)
            return -1; /* the datum's cluster is not live */
        s = &sl[j];
        if (cl[j].n == 1) {
            /* An emptied cluster is deleted before the draw, so this step
             * flips.  The rows after it move down, and no step is known. */
            memmove(sl + j, sl + j + 1, (size_t)(k - j - 1) * sizeof(slot));
            memmove(cl + j, cl + j + 1, (size_t)(k - j - 1) * sizeof(cluster));
            k--;
            for (m = 0; m < k; m++)
                sl[m].total = 0.0;
            total = step_weights(sl, k, -1, new_w, &top);
            j = -1;
        } else {
            int cached = s->total != 0.0;
            if (!cached) {
                if (isnan(s->off_w)) {
                    s->off = predictive_terms(shape, rate, log((double)(cl[j].n - 1)),
                                              cl[j].n - 1, cl[j].s - x);
                    s->off_w = log_predictive(&s->off, xd, lgamma_x1);
                }
                s->total = step_weights(sl, k, j, new_w, &top);
                s->lo = j ? sl[j - 1].cum : -INFINITY;
                s->hi = s->cum;
                s->stay = s->off_w;
            }
            target = uniforms[t] * s->total;
            if (s->lo <= target && target < s->hi) {
                joint += s->stay;
                continue;
            }
            /* A flip: the datum leaves its cluster for good.  A step kept
             * from an earlier datum left its weights to later steps. */
            total = cached ? step_weights(sl, k, j, new_w, &top) : s->total;
            cl[j].n -= 1;
            cl[j].s -= x;
            s->at = s->off;
            s->at_w = s->off_w;
            s->off_w = NAN;
        }
        /* The draw: the first cumulative weight above the target, else NEW. */
        target = uniforms[t] * total;
        for (idx = 0; idx < k && !(target < sl[idx].cum); idx++)
            ;
        joint += sl[idx].log_w;
        flips += 1;
        if (idx == k) {
            cl[k].id = (*next_id)++;
            cl[k].n = 0;
            cl[k].s = 0;
            cl[k].created_at = n_data;
            sl[k].off_w = NAN;
            k++;
        } else {
            /* Without this datum, cluster idx is the cluster it was. */
            sl[idx].off = sl[idx].at;
            sl[idx].off_w = sl[idx].at_w;
        }
        cl[idx].n += 1;
        cl[idx].s += x;
        sl[idx].at = predictive_terms(shape, rate, log((double)cl[idx].n), cl[idx].n, cl[idx].s);
        sl[idx].at_w = log_predictive(&sl[idx].at, xd, lgamma_x1);
        assign[i] = cl[idx].id;
        for (m = 0; m < k; m++)
            sl[m].total = 0.0;
        j = idx;
    }
    *joint_out = joint;
    *flips_out = flips;
    return k;
}
